"""mcma benchmark: seeded synthetic clips through the program's public entry
points, timed from outside in a single-process closed loop (one call in
flight; the next starts when the previous returns).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  clip320_flow1     pipeline.run, sequential executor, 320x256, flow scale 1
  cli640_flow4_par  mcma.cli.main(["run", "--executor", "par", ...]) on a
                    640x512 PPM directory, flow scale 1/4

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run that alternates
untraced and traced calls. The line before it is a full report: the machine,
every per-layer metric (a hook never reached is listed as missing) and the
checks. Spans and the report are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

# One BLAS thread per calling thread keeps the load within the CPU count:
# OpenBLAS otherwise starts one thread per CPU in each caller, and the
# parallel executor calls it from two threads at once.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the BLAS setting)

from program import ROOT, import_mcma  # noqa: E402
from tracing import Tracer, call_metrics, median_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_ROUNDS = 3


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _sorted_files(dirpath: Path, suffix: str):
    return sorted(p for p in dirpath.iterdir() if p.name.endswith(suffix))


def _confusion(pred, gt, num_classes):
    idx = gt.astype(int).ravel() * num_classes + pred.astype(int).ravel()
    return np.bincount(idx, minlength=num_classes ** 2).reshape(
        num_classes, num_classes)


def miou(preds, gts, num_classes) -> float:
    """Mean IoU over classes present in prediction or ground truth, with
    counts summed over all frames."""
    cm = sum(_confusion(p, g, num_classes) for p, g in zip(preds, gts))
    inter = np.diag(cm).astype(float)
    union = cm.sum(0) + cm.sum(1) - inter
    present = union > 0
    return float(np.mean(inter[present] / union[present]))


class Workload:
    """One seeded clip through one public entry point.

    ``scene`` is the scene config the set-up renders and ``prepare`` loads
    the call's inputs. ``call`` is the timed call. ``fingerprints`` turns
    its result into one digest per frame, or None for a frame whose mask
    fails the shape and label checks. ``expected`` gives the digests every
    call must match, and ``quality`` the mIoU against ground truth.
    """

    frames: int
    height: int
    width: int
    num_classes: int

    def __init__(self, mcma, seed: int, work_dir: Path):
        self.mcma = mcma
        self.seed = seed
        self.work_dir = work_dir
        self.data_dir = work_dir / "data"

    def prepare(self) -> None:
        pass

    def _label_ok(self, labels) -> bool:
        return (labels.shape == (self.height, self.width)
                and labels.dtype.name == "uint8"
                and int(labels.max()) < self.num_classes)

    def gt_masks(self):
        read_mask = self.mcma.core.read_mask
        return [read_mask(p).labels
                for p in _sorted_files(self.data_dir / "masks", ".pgm")]

    def gt_flows(self):
        read_flow = self.mcma.core.read_flow
        return [read_flow(p)
                for p in _sorted_files(self.data_dir / "flow", ".mcfl")]


class Clip320Flow1(Workload):
    """A textured disk crossing a panning, textured background with label
    noise; the seed moves the disk's start and draws textures and noise."""

    frames, height, width, num_classes = 10, 256, 320, 2

    def scene(self):
        rng = random.Random(self.seed)
        cx, cy = 90 + rng.uniform(-8, 8), 120 + rng.uniform(-8, 8)
        return f"""\
width = 320
height = 256
num_classes = 2
frames = {self.frames}
seed = {self.seed}
texture_amplitude = 10
label_noise_rate = 0.01
global_velocity = 1.5,0.5
object = shape=disk class=1 color=200,60,60 center={cx:.2f},{cy:.2f} radius=40 velocity=4,1.5
"""

    def prepare(self):
        read_frame = self.mcma.core.read_frame
        self.inputs = [read_frame(p, index=i) for i, p in enumerate(
            _sorted_files(self.data_dir / "frames", ".ppm"))]
        scene = self.mcma.cli.parse_scene_config(
            (self.data_dir / "scene.cfg").read_text())
        self.spec = self.mcma.model_spec_from_scene(scene)
        self.cfg = self.mcma.PipelineConfig(
            alpha=0.2, lam=1.0, flow_scale=1.0, num_classes=self.num_classes,
            executor="sequential", mode="mcma")

    def call(self):
        masks, _ = self.mcma.pipeline.run(self.inputs, self.cfg, self.spec)
        return masks

    def fingerprints(self, masks):
        fps = [_digest(m.labels.tobytes()) if self._label_ok(m.labels) else None
               for m in masks]
        return fps + [None] * (self.frames - len(fps))

    def expected(self, first_fps):
        return first_fps

    def quality(self, masks):
        return miou([m.labels for m in masks], self.gt_masks(),
                    self.num_classes)


class Cli640Flow4Par(Workload):
    """Three textured shapes of three classes moving against a pan, with
    label noise; the seed moves their starts and draws textures and noise."""

    frames, height, width, num_classes = 8, 512, 640, 4

    def scene(self):
        rng = random.Random(self.seed)
        j = [rng.uniform(-10, 10) for _ in range(6)]
        return f"""\
width = 640
height = 512
num_classes = 4
frames = {self.frames}
seed = {self.seed}
texture_amplitude = 10
label_noise_rate = 0.01
global_velocity = 2,1
object = shape=disk class=1 color=200,60,60 center={180 + j[0]:.2f},{200 + j[1]:.2f} radius=60 velocity=6,2
object = shape=rectangle class=2 color=60,60,200 topleft={380 + j[2]:.2f},{120 + j[3]:.2f} size=140,90 velocity=-4,3
object = shape=disk class=3 color=220,200,60 center={420 + j[4]:.2f},{380 + j[5]:.2f} radius=50 velocity=-3,-2
"""

    def _main(self, executor, out) -> int:
        argv = ["run", "--frames", str(self.data_dir / "frames"),
                "--mode", "mcma", "--alpha", "0.2", "--lambda", "1.0",
                "--flow-scale", "0.25", "--executor", executor,
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.mcma.cli.main(argv)

    def call(self):
        return self._main("par", self.work_dir / "out")

    def _read_masks(self, out):
        """Digest and labels of each written mask; None where the file is
        not a PGM of the frame's size with labels below num_classes."""
        header = b"P5\n%d %d\n255\n" % (self.width, self.height)
        result = []
        for path in _sorted_files(out, ".pgm")[:self.frames]:
            data = path.read_bytes()
            labels = np.frombuffer(data[len(header):], np.uint8)
            ok = (data.startswith(header)
                  and labels.size == self.width * self.height)
            labels = labels.reshape(self.height, self.width) if ok else None
            ok = ok and self._label_ok(labels)
            result.append((_digest(data), labels) if ok else (None, None))
        return result + [(None, None)] * (self.frames - len(result))

    def fingerprints(self, status):
        if status != 0:
            return [None] * self.frames
        return [fp for fp, _ in self._read_masks(self.work_dir / "out")]

    def expected(self, first_fps):
        """Digests of a sequential pass over the same frames."""
        ref = self.work_dir / "ref"
        if self._main("seq", ref) != 0:
            return [None] * self.frames
        return [fp for fp, _ in self._read_masks(ref)]

    def quality(self, status):
        masks = [labels for _, labels in self._read_masks(self.work_dir / "out")]
        if any(m is None for m in masks):
            return float("nan")
        return miou(masks, self.gt_masks(), self.num_classes)


WORKLOADS = {"clip320_flow1": Clip320Flow1,
             "cli640_flow4_par": Cli640Flow4Par}


def machine_info() -> dict:
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_round(wl: Workload) -> float:
    """Generate and write the dataset in a fresh interpreter, then load the
    call's inputs; returns the round's wall time in seconds."""
    t0 = time.perf_counter()
    shutil.rmtree(wl.data_dir, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), str(wl.data_dir)],
                   input=wl.scene(), text=True, check=True, timeout=120)
    wl.prepare()
    return time.perf_counter() - t0


def epe_px(flows, gt_flows) -> float:
    """Mean endpoint error of estimated flows in input pixels, against the
    ground truth averaged over each estimate pixel's footprint."""
    errs = []
    for index, est in flows:
        gt = gt_flows[index]
        k = gt.height // est.height
        h, w = est.height * k, est.width * k

        def pool(a):
            return a[:h, :w].reshape(est.height, k, est.width, k).mean((1, 3))

        du = est.u * k - pool(gt.u)
        dv = est.v * k - pool(gt.v)
        errs.append(np.hypot(du, dv).mean())
    return float(np.mean(errs))


def measure(wl: Workload, seconds: float, tracer):
    """Closed loop of timed calls until ``seconds`` pass. With a tracer,
    untraced and traced calls alternate. Returns per-call wall times, the
    per-call fingerprints, the first result and the traced calls' spans."""
    deadline = time.perf_counter() + seconds
    walls = {False: [], True: []}
    fps, layer_runs, spans, flows = [], [], [], None
    first = None
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = wl.call()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        fps.append(wl.fingerprints(result))
        if first is None:
            first = result
        if traced:
            call_spans, call_flows = tracer.take()
            layer_runs.append(call_metrics(call_spans, wl.frames))
            spans.extend(call_spans)
            flows = flows or call_flows
        if tracer is not None:
            traced = not traced
        if time.perf_counter() >= deadline and not traced:
            break
    return walls, fps, first, layer_runs, spans, flows


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mcma = import_mcma()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=work_root))
    try:
        wl = WORKLOADS[args.workload](mcma, args.seed, work_dir)
        rounds = [setup_round(wl) for _ in range(SETUP_ROUNDS)]

        tracer = Tracer(mcma) if args.trace else None
        walls, fps, first, layer_runs, spans, flows = measure(
            wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        expected = wl.expected(fps[0])
        failed = sum(f is None or f != e
                     for call in fps for f, e in zip(call, expected))
        attempted = wl.frames * len(fps)
        quality = wl.quality(first)
        ms_per_frame = statistics.median(walls[False]) * 1000 / wl.frames
        values = {
            "ms_per_frame": ms_per_frame,
            "miou": quality,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(rounds),
        }
        report = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "machine": machine_info(),
                  "setup_rounds_s": rounds,
                  "call_ms": {k: [w * 1000 for w in v]
                              for k, v in (("untraced", walls[False]),
                                           ("traced", walls[True]))}}
        wanted = bench["end_to_end"]
        if args.trace:
            values = median_metrics(layer_runs)
            values["flow.epe_px"] = epe_px(flows, wl.gt_flows())
            values["trace.overhead_pct"] = 100.0 * (
                statistics.median(walls[True])
                / statistics.median(walls[False]) - 1.0)
            report["untraced_ms_per_frame"] = ms_per_frame
            report["missing"] = sorted(k for k, v in values.items() if v is None)
            wanted = bench["per_layer"]
        report["metrics"] = values
        report["checks"] = {"attempted_frames": attempted,
                            "failed_frames": failed}
        correct = failed == 0 and quality == quality  # NaN mIoU is a failure

        results = HERE / "results"
        results.mkdir(exist_ok=True)
        out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record = dict(report, spans=[asdict(s) for s in spans])
        out.write_text(json.dumps(record))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    print(json.dumps(report))
    print(json.dumps({"correct": bool(correct) and len(metrics) == len(wanted),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
