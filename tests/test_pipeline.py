import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import mcma.flow
import mcma.pipeline
from mcma import (FeatureMap, Frame, ModelSpec, PipelineConfig,
                  SceneObject, SceneSpec, Segmenter, alpha_sweep,
                  benchmark_report, generate, model_spec_from_scene, run,
                  write_features)
from mcma.flow import FlowEstimator
from mcma.fusion import ema_fuse
from mcma.model import decode, encode, feature_file_path
from mcma.pipeline import PipelineError, StageTiming, timings_csv

from conftest import flow_encode_overlap, pair_flow, slow_sources


# the per-frame baseline, the plain EMA and mcma, as overrides of a run's
# alpha and lambda
SETTINGS = [dict(alpha=1.0), dict(lam=0.0), dict()]
SETTINGS_IDS = ["baseline", "ema", "mcma"]


def moving_scene(frames=20, width=128, height=96, seed=2, velocity=(3, 1)):
    return SceneSpec(width=width, height=height, num_classes=2, frames=frames,
                     seed=seed,
                     objects=[SceneObject("disk", 1, (200, 60, 60),
                                          (width // 3, height // 2),
                                          velocity=velocity, radius=14)])


def tiny_model():
    return ModelSpec(prototypes=[(90, 90, 90), (0, 0, 0)], feature_stride=4)


def tiny_frames(n=6):
    return [Frame(np.full((16, 16, 3), 90, np.uint8), index=i)
            for i in range(n)]


def parallel_cfg(cfg):
    return dataclasses.replace(cfg, executor="parallel")


def breakable(monkeypatch, module, name, fail_from):
    """Make ``module.name`` raise from its ``fail_from``-th call on (1 is
    the first)."""
    fn = getattr(module, name)
    calls = []

    def call(*args):
        calls.append(None)
        if len(calls) >= fail_from:
            raise RuntimeError(f"{name} unavailable")
        return fn(*args)
    monkeypatch.setattr(module, name, call)


# the call on which each function breaks to fail the second frame of a
# stream, and the stage that the failure names: the first frame's flow push
# expands only and never calls estimate_flow
FAIL_SECOND_FRAME = {
    "flow": (mcma.flow, "estimate_flow", 1, "flow"),
    "downscale": (mcma.pipeline, "downscale_frame", 2, "flow"),
    "encode": (mcma.pipeline, "encode", 2, "encode"),
    "decode": (mcma.pipeline, "decode", 2, "decode")}


class TestRunSequential:
    def test_single_frame_is_baseline(self):
        spec = moving_scene(frames=1)
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.1, num_classes=2)
        masks, timings = run([seq[0][0]], cfg, mspec)
        baseline = decode(encode(seq[0][0], mspec), mspec)
        assert len(masks) == 1 and len(timings) == 1
        assert np.array_equal(masks[0].labels, baseline.labels)

    def test_alpha_one_matches_baseline(self):
        spec = moving_scene(frames=8)
        seq = generate(spec)
        frames = [s[0] for s in seq]
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=1.0, flow_scale=0.5, num_classes=2)
        masks, _ = run(frames, cfg, mspec)
        for frame, mask in zip(frames, masks):
            baseline = decode(encode(frame, mspec), mspec)
            assert np.array_equal(mask.labels, baseline.labels)

    def test_cardinality_100_frames(self):
        spec = SceneSpec(width=64, height=48, num_classes=2, frames=100,
                         seed=0, objects=[SceneObject(
                             "disk", 1, (200, 60, 60), (20, 24),
                             velocity=(1, 0), radius=8)])
        seq = generate(spec)
        cfg = PipelineConfig(alpha=0.2, lam=0.0, num_classes=2)
        masks, timings = run([s[0] for s in seq], cfg,
                             model_spec_from_scene(spec))
        assert len(masks) == 100 and len(timings) == 100

    def test_dimension_change_fails_with_index(self):
        frames = tiny_frames(3)
        frames[2] = Frame(np.zeros((24, 24, 3), np.uint8), index=2)
        cfg = PipelineConfig(alpha=0.5, num_classes=2)
        with pytest.raises(PipelineError) as err:
            run(frames, cfg, tiny_model())
        assert err.value.frame_index == 2

    @pytest.mark.parametrize("settings", SETTINGS, ids=SETTINGS_IDS)
    def test_feature_channel_change_fails_with_index(self, tmp_path,
                                                     settings):
        for j, channels in enumerate((2, 2, 3)):
            write_features(FeatureMap(np.zeros((channels, 4, 4), np.float32)),
                           feature_file_path(tmp_path, j))
        mspec = ModelSpec(feature_dir=str(tmp_path))
        with pytest.raises(PipelineError) as err:
            run(tiny_frames(3), PipelineConfig(**{"alpha": 0.5, **settings}),
                mspec)
        assert err.value.frame_index == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run([], PipelineConfig(num_classes=2), tiny_model())


class TestRunParallel:
    def test_bit_identical_to_sequential(self):
        spec = moving_scene(frames=50, seed=7)
        seq = generate(spec)
        frames = [s[0] for s in seq]
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.15, lam=2.0, flow_scale=0.5,
                             num_classes=2)
        par_cfg = PipelineConfig(alpha=0.15, lam=2.0, flow_scale=0.5,
                                 num_classes=2, executor="parallel")
        seq_masks, _ = run(frames, cfg, mspec)
        par_masks, _ = run(frames, par_cfg, mspec)
        for a, b in zip(seq_masks, par_masks):
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("stride", [2, 4, 8])
    @pytest.mark.parametrize("flow_scale", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("settings", SETTINGS, ids=SETTINGS_IDS)
    def test_equal_to_sequential_over_grid(self, settings, flow_scale, stride):
        spec = moving_scene(frames=5, width=64, height=48, seed=9)
        frames = [s[0] for s in generate(spec)]
        mspec = model_spec_from_scene(spec, feature_stride=stride)
        cfg = PipelineConfig(**{"alpha": 0.3, "lam": 1.5,
                                "flow_scale": flow_scale, **settings})
        masks = {}
        for config in (cfg, parallel_cfg(cfg)):
            got, timings = run(frames, config, mspec)
            assert [t.executor for t in timings] == [config.executor] * 5
            masks[config.executor] = [m.labels.tobytes() for m in got]
        assert masks["parallel"] == masks["sequential"]

    def test_mcma_on_a_one_cell_high_feature_grid(self, rng):
        # 8x16 frames at stride 8 give 1x2 features: the flow is resized
        # to a grid one cell high
        base = rng.integers(0, 256, (8, 32, 3)).astype(np.uint8)
        frames = [Frame(np.ascontiguousarray(base[:, 2 * i:2 * i + 16]),
                        index=i) for i in range(5)]
        spec = ModelSpec(prototypes=[(90, 90, 90), (200, 60, 60)],
                         feature_stride=8)
        cfg = PipelineConfig(alpha=0.3, lam=1.0)
        masks = {}
        for config in (cfg, parallel_cfg(cfg)):
            got, _ = run(frames, config, spec)
            assert [m.labels.shape for m in got] == [(8, 16)] * 5
            masks[config.executor] = [m.labels.tobytes() for m in got]
        assert masks["parallel"] == masks["sequential"]

    @pytest.mark.parametrize("executor", ["sequential", "parallel"])
    def test_downscale_runs_in_the_flow_task(self, executor, monkeypatch):
        # a frame's downscale and push are one task: inline on the
        # sequential executor, on the one worker on the parallel one
        threads = []

        def downscale(frame, scale):
            threads.append(threading.get_ident())
            return mcma.flow.downscale_frame(frame, scale)
        monkeypatch.setattr(mcma.pipeline, "downscale_frame", downscale)
        cfg = PipelineConfig(alpha=0.5, flow_scale=0.5, executor=executor)
        run(tiny_frames(), cfg, tiny_model())
        caller = threading.get_ident()
        assert len(threads) == 6
        if executor == "sequential":
            assert set(threads) == {caller}
        else:
            assert caller not in threads and len(set(threads)) == 1

    def test_masks_in_input_order(self):
        spec = moving_scene(frames=10)
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=1.0, num_classes=2, executor="parallel")
        masks, _ = run([s[0] for s in seq], cfg, mspec)
        for (frame, _, _), mask in zip(seq, masks):
            baseline = decode(encode(frame, mspec), mspec)
            assert np.array_equal(mask.labels, baseline.labels)

    def test_concurrent_streams_under_fast_switching(self):
        # three parallel streams (six threads on a 2-CPU machine) with the
        # interpreter switching threads every 10 us: each stream's estimator
        # chain and scratch block stay its own, so every mask matches
        spec = moving_scene(frames=8, width=64, height=48, seed=5)
        frames = [s[0] for s in generate(spec)]
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.3, lam=1.0, flow_scale=0.5)
        want = [m.labels.tobytes() for m in run(frames, cfg, mspec)[0]]
        got = [None] * 3

        def stream(k):
            got[k] = [m.labels.tobytes()
                      for m in run(frames, parallel_cfg(cfg), mspec)[0]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=stream, args=(k,))
                       for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 3

    def test_injected_delay_scheduling(self, monkeypatch):
        # flow and encode each sleep 10 ms: the parallel schedule runs frame
        # t+1's flow beside frame t's encode, the sequential one pays for both
        cfg = PipelineConfig(alpha=0.5, num_classes=2)
        mspec = tiny_model()
        delay = 0.010

        def delayed(cfg):
            sources, spans = slow_sources(lambda f: encode(f, mspec), delay)
            seg = Segmenter(cfg, mspec, **sources)
            return [t for _, t in seg.stream(tiny_frames())], spans

        seq_t, seq_spans = delayed(cfg)
        decode_ends = []

        def logged_decode(fused, spec):
            mask = decode(fused, spec)
            decode_ends.append(time.perf_counter())
            return mask
        monkeypatch.setattr(mcma.pipeline, "decode", logged_decode)
        _, par_spans = delayed(parallel_cfg(cfg))
        seq_ms = np.mean([t.total_us for t in seq_t[1:]]) / 1000
        assert seq_ms > 20.0
        # on the recorded spans, frame t+1's flow runs beside frame t's
        # encode for at least half the injected flow time; one after the
        # other, the two never overlap
        pairs = len(tiny_frames()) - 1
        assert flow_encode_overlap(par_spans) >= 0.5 * delay * pairs
        assert flow_encode_overlap(seq_spans) == 0.0
        # frame t+1's flow starts before frame t's decode ends
        assert len(decode_ends) == len(tiny_frames())
        for t, decode_end in enumerate(decode_ends[:-1]):
            assert par_spans["flow"][t + 1][0] < decode_end, t

    def test_timing_invariants(self):
        cfg = PipelineConfig(alpha=0.5, flow_scale=1.0, num_classes=2)
        spec = moving_scene(frames=6, width=64, height=48)
        frames = [s[0] for s in generate(spec)]
        mspec = model_spec_from_scene(spec)
        tol = 500.0  # us of measurement slack

        def timed_stream(cfg):
            timings = []
            t0 = time.perf_counter_ns()
            for _, timing in Segmenter(cfg, mspec).stream(frames):
                last_mask_us = (time.perf_counter_ns() - t0) / 1000
                timings.append(timing)
            # each total runs from the previous mask to this one, so the
            # totals add up to the wall time up to the last mask
            total_us = sum(t.total_us for t in timings)
            assert last_mask_us - tol <= total_us <= last_mask_us
            return timings[1:]

        for t in timed_stream(cfg):
            stages = t.flow_us + t.encode_us + t.warp_us + t.fuse_us + t.decode_us
            assert t.total_us >= stages - tol
        # the flow runs on the worker, beside the caller's model work
        for t in timed_stream(parallel_cfg(cfg)):
            bound = t.encode_us + t.warp_us + t.fuse_us + t.decode_us
            assert t.total_us >= bound - tol

    def test_stage_failure_reports_frame(self, tmp_path):
        mspec = ModelSpec(feature_dir=str(tmp_path))
        cfg = PipelineConfig(alpha=1.0, num_classes=2, executor="parallel")
        with pytest.raises(PipelineError) as err:
            run(tiny_frames(2), cfg, mspec)
        assert err.value.frame_index == 0
        assert err.value.stage == "encode"

    def test_unreadable_frame_fails_after_the_frame_before(self):
        def frames():
            yield from tiny_frames(2)
            raise OSError("frame 2 unreadable")

        for executor in ("sequential", "parallel"):
            cfg = PipelineConfig(alpha=0.5, executor=executor)
            seg = Segmenter(cfg, tiny_model())
            seen = []
            with pytest.raises(OSError, match="frame 2 unreadable"):
                for mask, _ in seg.stream(frames()):
                    seen.append(mask)
            assert len(seen) == 2

    @pytest.mark.parametrize("executor", ["sequential", "parallel"])
    def test_none_frame_fails_at_its_position(self, executor):
        # None is a frame like any other, not the end of the frames
        first, _, last = tiny_frames(3)
        cfg = PipelineConfig(alpha=0.5, executor=executor)
        with pytest.raises(PipelineError) as err:
            list(Segmenter(cfg, tiny_model()).stream([first, None, last]))
        assert (err.value.frame_index, err.value.stage) == (1, "input")

    @pytest.mark.parametrize("executor, settings, ahead", [
        ("sequential", dict(), 0), ("parallel", dict(alpha=1.0), 0),
        ("parallel", dict(), 1)],
        ids=["sequential", "parallel-without-flow", "parallel"])
    def test_frames_are_read_only_when_due(self, executor, settings, ahead):
        # the parallel executor reads one frame ahead only to start its flow
        n, read = 5, []

        def frames():
            for frame in tiny_frames(n):
                read.append(frame.index)
                yield frame
        cfg = PipelineConfig(**{"alpha": 0.5, "executor": executor,
                                **settings})
        counts = [len(read)
                  for _ in Segmenter(cfg, tiny_model()).stream(frames())]
        assert counts == [min(t + 1 + ahead, n) for t in range(n)]


class TestWorkerLifetime:
    """The parallel stream's worker thread ends on every exit path."""

    @staticmethod
    def threads_after(call):
        before = threading.active_count()
        call()
        return before, threading.active_count()

    def test_successful_run(self):
        cfg = PipelineConfig(alpha=0.5, executor="parallel")
        before, after = self.threads_after(
            lambda: run(tiny_frames(), cfg, tiny_model()))
        assert after == before

    @pytest.mark.parametrize("failure", ["flow", "downscale", "encode"])
    def test_failed_run(self, failure, monkeypatch):
        cfg = PipelineConfig(alpha=0.5, executor="parallel")
        breakable(monkeypatch, *FAIL_SECOND_FRAME[failure][:3])

        def failing():
            with pytest.raises(PipelineError):
                run(tiny_frames(), cfg, tiny_model())
        before, after = self.threads_after(failing)
        assert after == before

    def test_abandoned_stream(self):
        cfg = PipelineConfig(alpha=0.5, executor="parallel")

        def abandon():
            stream = Segmenter(cfg, tiny_model()).stream(tiny_frames())
            next(stream)
            assert threading.active_count() > before
            stream.close()
        before = threading.active_count()
        abandon()
        assert threading.active_count() == before

    def test_unreadable_frame(self):
        def frames():
            yield from tiny_frames(2)
            raise OSError("frame 2 unreadable")

        def failing():
            seen = []
            with pytest.raises(OSError, match="frame 2 unreadable"):
                for mask, _ in Segmenter(cfg, tiny_model()).stream(frames()):
                    seen.append(mask)
            assert len(seen) == 2
        cfg = PipelineConfig(alpha=0.5, executor="parallel")
        before, after = self.threads_after(failing)
        assert after == before

    @pytest.mark.parametrize("settings", [dict(alpha=1.0), dict(lam=0.0)])
    def test_settings_without_flow_start_no_thread(self, settings):
        cfg = PipelineConfig(**{"alpha": 0.5, "executor": "parallel",
                                **settings})
        before = threading.active_count()
        stream = Segmenter(cfg, tiny_model()).stream(tiny_frames())
        next(stream)
        assert threading.active_count() == before
        stream.close()


class TestBenchmarkReport:
    @staticmethod
    def rows(totals, **stage_us):
        out = []
        for i, total in enumerate(totals):
            kw = dict(flow_us=0.0, encode_us=0.0, warp_us=0.0, fuse_us=0.0,
                      decode_us=0.0)
            kw.update(stage_us)
            out.append(StageTiming(i, total_us=total, executor="sequential",
                                   flow_scale=1.0, **kw))
        return out

    def test_constant_totals(self):
        report = benchmark_report(self.rows([1000.0] * 5))
        lines = report.strip().splitlines()
        assert lines[0] == "stage,mean_us,std_us,mode,flow_scale"
        total_line = [l for l in lines if l.startswith("total,")][0]
        assert total_line.split(",")[1:3] == ["1000.000", "0.000"]
        assert lines[-1] == "achievable_hz,1000.000"

    def test_sample_std(self):
        report = benchmark_report(self.rows([900.0, 1100.0]))
        total_line = [l for l in report.splitlines()
                      if l.startswith("total,")][0]
        assert float(total_line.split(",")[2]) == pytest.approx(141.4, abs=0.1)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            benchmark_report(self.rows([1000.0]))

    def test_timings_csv_rows(self):
        csv = timings_csv(self.rows([10.0, 20.0]))
        assert len(csv.strip().splitlines()) == 3


class TestSegmenter:
    def test_degenerate_settings_never_call_flow(self):
        spec = moving_scene(frames=6)
        frames = [s[0] for s in generate(spec)]
        mspec = model_spec_from_scene(spec)
        calls = []

        class CountingFlow(FlowEstimator):
            def push(self, small):
                flow = super().push(small)
                if flow is not None:
                    calls.append(small.index)
                return flow

        def masks(**kwargs):
            seg = Segmenter(PipelineConfig(num_classes=2, **kwargs), mspec,
                            flow=CountingFlow())
            return [m for m, _ in seg.stream(frames)]

        masks(alpha=1.0, lam=1.0)
        masks(alpha=0.3, lam=0.0)
        assert calls == []
        masks(alpha=0.3, lam=1.0)
        assert calls == [f.index for f in frames[1:]]

        # alpha = 1 stays the per-frame baseline at lambda = 0
        for frame, mask in zip(frames, masks(alpha=1.0, lam=0.0)):
            baseline = decode(encode(frame, mspec), mspec)
            assert np.array_equal(mask.labels, baseline.labels)

    def test_failed_push_keeps_state(self):
        spec = moving_scene(frames=3)
        frames = [s[0] for s in generate(spec)]
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.3, lam=1.0, num_classes=2)
        expected = [m for m, _ in Segmenter(cfg, mspec).stream(frames)]
        broken = []

        def encoder(frame):
            if broken:
                raise RuntimeError("encoder unavailable")
            return encode(frame, mspec)

        seg = Segmenter(parallel_cfg(cfg), mspec, encoder=encoder)
        stream = seg.stream(frames[:2])
        next(stream)
        broken.append(True)
        with pytest.raises(PipelineError) as err:
            next(stream)
        assert err.value.frame_index == 1
        broken.clear()
        got = [m for m, _ in seg.stream(frames[1:])]
        for a, b in zip(expected[1:], got):
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("failure", list(FAIL_SECOND_FRAME))
    @pytest.mark.parametrize("parallel", [False, True])
    def test_failed_push_keeps_flow_estimator(self, failure, parallel,
                                              monkeypatch):
        spec = moving_scene(frames=3)
        frames = [s[0] for s in generate(spec)]
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.3, lam=1.0, num_classes=2,
                             executor="parallel" if parallel else "sequential")
        expected = [m for m, _ in Segmenter(cfg, mspec).stream(frames)]
        flows = []

        class RecordingFlow(FlowEstimator):
            def push(self, small):
                flows.append(super().push(small))
                return flows[-1]

        module, name, fail_from, stage = FAIL_SECOND_FRAME[failure]
        breakable(monkeypatch, module, name, fail_from)
        seg = Segmenter(cfg, mspec, flow=RecordingFlow())
        # frame 2 in the second position fails; on the parallel executor a
        # failed downscale or flow fails on the worker while frame 0 is
        # decoded, and the error still names frame 1 and the flow
        with pytest.raises(PipelineError) as err:
            for _ in seg.stream([frames[0], frames[2]]):
                pass
        assert (err.value.frame_index, err.value.stage) == (1, stage)
        assert str(err.value) == (
            f"pipeline failed at frame 1 ({stage}): {name} unavailable")
        monkeypatch.undo()
        got = [m for m, _ in seg.stream(frames[1:])]
        want = pair_flow(frames[0], frames[1])
        assert flows[-2].u.tobytes() == want.u.tobytes()
        assert flows[-2].v.tobytes() == want.v.tobytes()
        for a, b in zip(expected[1:], got):
            assert np.array_equal(a.labels, b.labels)


class TestAlphaSweepInputs:
    def test_frame_and_gt_counts_validated(self):
        spec = moving_scene(frames=3, width=64, height=48)
        seq = generate(spec)
        frames = [s[0] for s in seq]
        gts = [s[1] for s in seq]
        mspec = model_spec_from_scene(spec)
        for bad_frames, bad_gts in (([], []), (frames, gts[:2]),
                                    (frames, gts + gts[:1])):
            with pytest.raises(ValueError):
                alpha_sweep(bad_frames, bad_gts, mspec, lam=2.0,
                            flow_scale=1.0, alphas=[0.5])
        assert len(alpha_sweep(frames, gts, mspec, lam=2.0, flow_scale=1.0,
                               alphas=[0.5])) == 2

    @pytest.mark.parametrize("lam, flow_scale, alphas", [
        (-1.0, 1.0, [0.5]), (1.0, 0.3, [0.5]), (1.0, 1.0, [0.5, 1.5]),
        (1.0, 1.0, []), (1.0, True, [0.5])],
        ids=["lambda", "flow-scale", "alpha", "no-alpha", "flow-scale-bool"])
    def test_bad_settings_fail_before_any_frame_is_encoded(
            self, monkeypatch, lam, flow_scale, alphas):
        spec = moving_scene(frames=3, width=64, height=48)
        seq = generate(spec)
        frames, gts = [s[0] for s in seq], [s[1] for s in seq]
        calls = []

        def counting_encode(*args):
            calls.append(args)
            return encode(*args)
        monkeypatch.setattr(mcma.pipeline, "encode", counting_encode)
        with pytest.raises(ValueError):
            alpha_sweep(frames, gts, model_spec_from_scene(spec), lam=lam,
                        flow_scale=flow_scale, alphas=alphas)
        assert calls == []


class TestAlphaSweepReplay:
    def test_starts_no_thread(self, monkeypatch):
        spec = moving_scene(frames=4, width=64, height=48)
        seq = generate(spec)
        frames, gts = [s[0] for s in seq], [s[1] for s in seq]
        mspec = model_spec_from_scene(spec)
        # every replayed fuse sees the threads that ran before the sweep
        threads = []

        def counting_fuse(*args):
            threads.append(threading.active_count())
            return ema_fuse(*args)
        monkeypatch.setattr(mcma.pipeline, "ema_fuse", counting_fuse)
        before = threading.active_count()
        alpha_sweep(frames, gts, mspec, lam=1.5, flow_scale=0.5,
                    alphas=[0.3, 0.7])
        assert threads and set(threads) == {before}
