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
    cfg = PipelineConfig(alpha=0.5, lam=1.0, flow_scale=0.5, mode="mcma")
    tracer = tracing.Tracer(mcma)
    tracer.install()
    try:
        mcma.pipeline.run(frames, cfg, spec)  # looked up as the hook is
        spans, _ = tracer.take()
    finally:
        tracer.uninstall()
    reached = {span.name for span in spans}
    expected = {tracing.ENTRY} | set(tracing.LEAVES) - CLI_ONLY
    assert expected <= reached, sorted(expected - reached)
