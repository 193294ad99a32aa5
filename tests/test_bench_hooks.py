"""The benchmark's tracer hooks functions by module and name; a refactor that
moves one must fail here rather than silently drop a span."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import mcma
from mcma import Frame, ModelSpec, PipelineConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# hooks that only the command line workload reaches
CLI_ONLY = {"core.read_frame", "core.write_mask", "cli.load_frames"}
# `mcma run` reads its frames inside pipeline.run, one at a time, and writes
# the masks after it returns; `sweep` and `bench` load the frames first
NOT_IN_CLI_RUN = {"cli.load_frames"}
AFTER_CLI_RUN = {"core.write_mask"}


def assert_one_flow_per_pair(flows, frames, grid):
    """perfbench's epe_px looks each recorded flow up by its frame index:
    frames 1..n-1, each once, on the flow grid."""
    assert len(flows) == frames - 1
    assert {index for index, _ in flows} == set(range(1, frames))
    for _, flow in flows:
        assert (flow.height, flow.width) == grid


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_hooks_resolve_to_functions(tracing):
    for name in (tracing.ENTRY,) + tracing.LEAVES:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"mcma.{module}"), attr, None)
        assert inspect.isfunction(fn), name


def test_traced_run_reaches_every_hook(tracing):
    rng = np.random.default_rng(0)
    frames = [Frame(rng.integers(0, 256, (48, 64, 3)).astype(np.uint8),
                    index=i) for i in range(3)]
    spec = ModelSpec(prototypes=[(0, 0, 0), (255, 255, 255)],
                     feature_stride=4)
    # perfbench's keywords, num_classes and mode among them
    cfg = PipelineConfig(alpha=0.5, lam=1.0, flow_scale=0.5, num_classes=2,
                         executor="sequential", mode="mcma")
    tracer = tracing.Tracer(mcma)
    tracer.install()
    try:
        mcma.pipeline.run(frames, cfg, spec)  # looked up as the hook is
        spans, flows = tracer.take()
    finally:
        tracer.uninstall()
    reached = {span.name for span in spans}
    expected = {tracing.ENTRY} | set(tracing.LEAVES) - CLI_ONLY
    assert expected <= reached, sorted(expected - reached)
    assert_one_flow_per_pair(flows, len(frames), (24, 32))


def test_traced_cli_run_reaches_every_hook(tracing, tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text("width = 64\nheight = 48\nframes = 3\nseed = 1\n"
                     "object = shape=disk class=1 color=200,60,60 "
                     "center=20,24 radius=8 velocity=2,1\n")
    data = tmp_path / "data"
    assert mcma.cli.main(["generate", "--config", str(scene),
                          "--out", str(data)]) == 0
    argv = ["run", "--frames", str(data / "frames"), "--mode", "mcma",
            "--alpha", "0.5", "--lambda", "1.0", "--flow-scale", "0.5",
            "--executor", "par", "--out", str(tmp_path / "out")]
    tracer = tracing.Tracer(mcma)
    tracer.install()
    try:
        assert mcma.cli.main(argv) == 0
        spans, flows = tracer.take()
    finally:
        tracer.uninstall()
    by_id = {span.id: span for span in spans}
    entries = [span for span in spans if span.name == tracing.ENTRY]
    assert len(entries) == 1

    def under_entry(span):
        while span.parent is not None:
            span = by_id[span.parent]
        return span is entries[0]

    reached = {span.name for span in spans}
    expected = set(tracing.LEAVES) - NOT_IN_CLI_RUN
    assert expected <= reached, sorted(expected - reached)
    outside = {span.name for span in spans
               if span is not entries[0] and not under_entry(span)}
    assert outside == AFTER_CLI_RUN
    assert_one_flow_per_pair(flows, 3, (24, 32))
