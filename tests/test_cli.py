import importlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mcma
from mcma import (FeatureMap, ModelSpec, PipelineConfig, SceneSpec,
                  model_spec_from_scene, read_mask, run, write_features,
                  write_mask)
from mcma.cli import build_parser, load_frames, main, parse_scene_config
from mcma.model import decode, encode, feature_file_path

SCENE = """
# moving disk over textured background
width = 128
height = 96
num_classes = 2
frames = 12
seed = 4
background_color = 40,110,40
texture_amplitude = 8
label_noise_rate = 0.01
object = shape=disk class=1 color=200,60,60 center=40,48 radius=14 velocity=3,0
"""


def with_line(line):
    """SCENE with ``line`` in place of its line of the same scalar key, or
    appended."""
    key = line.split("=", 1)[0].strip()
    kept = [raw for raw in SCENE.splitlines()
            if key == "object" or raw.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


@pytest.fixture
def dataset(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENE)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def per_frame_baseline(dataset):
    """``decode(encode(frame))`` of each frame of ``dataset``, SCENE's."""
    spec = model_spec_from_scene(parse_scene_config(SCENE))
    return [decode(encode(frame, spec), spec)
            for frame in load_frames(dataset / "frames")]


class TestParseSceneConfig:
    def test_full_parse(self):
        spec = parse_scene_config(SCENE)
        assert spec.width == 128 and spec.frames == 12
        assert spec.objects[0].shape == "disk"
        assert spec.objects[0].velocity == (3.0, 0.0)

    def test_empty_config_is_the_default_scene(self):
        assert parse_scene_config("") == SceneSpec()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_scene_config("wobble = 3\n")

    def test_rectangle_object(self):
        spec = parse_scene_config(
            "object = shape=rectangle class=1 color=1,2,3 topleft=4,5 "
            "size=10,10 velocity=0,1\n")
        assert spec.objects[0].size == (10.0, 10.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="triangle"):
            parse_scene_config(
                "object = shape=triangle class=1 color=1,2,3 topleft=4,4 "
                "size=10,10\n")

    @pytest.mark.parametrize("fields, message", [
        ("shape=rectangle class=1 color=1,2,3",
         "rectangle object needs topleft"),
        ("shape=disk class=1 color=1,2,3 center=4,4",
         "disk object needs radius"),
        ("class=1 color=1,2,3 center=4,4 radius=2", "object needs shape"),
    ])
    def test_missing_key_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            parse_scene_config(f"object = {fields}\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="repeated config key 'width'"):
            parse_scene_config("width = 100\nheight = 64\nwidth = 64\n")

    def test_repeated_object_key_rejected(self):
        with pytest.raises(ValueError, match="repeated object key 'class'"):
            parse_scene_config("object = shape=disk class=1 class=0 "
                               "color=1,2,3 center=4,4 radius=2\n")

    def test_object_lines_may_repeat(self):
        line = "object = shape=disk class=1 color=1,2,3 center=4,4 radius=2\n"
        assert len(parse_scene_config(line + line).objects) == 2


class TestGenerate:
    def test_reproducible(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(SCENE)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append(out)
        for sub in ("frames", "masks", "flow"):
            for fname in sorted(os.listdir(outs[0] / sub)):
                a = (outs[0] / sub / fname).read_bytes()
                b = (outs[1] / sub / fname).read_bytes()
                assert a == b

    @pytest.mark.parametrize("line, field", [
        ("texture_amplitude = nan", "texture_amplitude"),
        ("global_velocity = nan,0", "global_velocity"),
        ("background_color = -5,300,40", "background_color"),
        ("object = shape=disk class=1 color=200,60,60 center=inf,12 "
         "radius=3", "position"),
        ("object = shape=disk class=1 color=200,60,60 center=4,4 "
         "radius=nan", "radius"),
        ("object = shape=disk class=1 color=200,60,60 center=4,4 "
         "radius=1e7", "radius"),
        ("object = shape=rectangle class=1 color=200,60,60 topleft=4,4 "
         "size=1e9,3", "size"),
        ("width = 1.5", "width"),
        ("global_velocity = a,b", "global_velocity"),
        ("global_velocity = 1", "global_velocity"),
        ("object = shape=disk class=x color=200,60,60 center=4,4 radius=3",
         "class"),
        ("object = shape=disk class=1 color=200,60,60 center=4,4 radius=r",
         "radius"),
        ("object = shape=disk class=1 color=1,2 center=4,4 radius=3",
         "color"),
        ("seed = -1", "seed")])
    def test_bad_number_exits_1(self, tmp_path, capsys, line, field):
        err = self.generate_fails(tmp_path, capsys, with_line(line))
        assert err.startswith(f"error: {field} ")

    @pytest.mark.parametrize("line, message", [
        ("seed 4", "bad config line 'seed 4'"),
        ("object = shape=disk class=1 bogus color=200,60,60 center=4,4 "
         "radius=3", "bad object token 'bogus'"),
        ("object = shape=disk class=1 color=200,60,60 center=4,4 radius=3 "
         "spin=2", "unknown object keys: ['spin']"),
        ("width = 1.5", "width must be an integer: '1.5'"),
        ("texture_amplitude = lots",
         "texture_amplitude must be a number: 'lots'"),
        ("global_velocity = a,b",
         "global_velocity must be 2 comma-separated numbers: 'a,b'"),
        ("object = shape=disk class=1 color=1,2 center=4,4 radius=3",
         "color must be 3 comma-separated integers: '1,2'")])
    def test_malformed_line_exits_1(self, tmp_path, capsys, line, message):
        text = with_line(line)
        with pytest.raises(ValueError) as err:
            parse_scene_config(text)
        assert err.type is ValueError and str(err.value) == message
        assert self.generate_fails(tmp_path, capsys, text) == (
            f"error: {message}\n")

    @pytest.mark.parametrize("num_classes", [1, 300])
    def test_class_count_exits_1(self, tmp_path, capsys, num_classes):
        err = self.generate_fails(
            tmp_path, capsys, with_line(f"num_classes = {num_classes}"))
        assert err.startswith("error: num_classes must be in [2, 256]")

    def test_repeated_key_exits_1(self, tmp_path, capsys):
        err = self.generate_fails(tmp_path, capsys, SCENE + "frames = 3\n")
        assert err.startswith("error: repeated config key 'frames'")

    @staticmethod
    def generate_fails(tmp_path, capsys, text):
        """The stderr of an ``mcma generate`` that exits 1, writing nothing."""
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(text)
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_layout(self, dataset):
        assert len(list((dataset / "frames").glob("*.ppm"))) == 12
        assert (dataset / "scene.cfg").exists()


class TestRun:
    def test_alpha_one_equals_baseline(self, dataset, tmp_path):
        out = tmp_path / "alpha1"
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--alpha", "1.0", "--flow-scale", "0.5",
                     "--out", str(out)]) == 0
        want = per_frame_baseline(dataset)
        got = sorted(out.glob("*.pgm"))
        assert len(got) == len(want) == 12
        for path, mask in zip(got, want):
            assert np.array_equal(read_mask(path).labels, mask.labels)
        assert (out / "timings.csv").exists()

    @pytest.mark.parametrize("mode", ["baseline", "ema"])
    def test_mode_accepts_only_mcma(self, dataset, tmp_path, mode):
        # --mode is kept, unread, for perfbench's "mcma" alone
        with pytest.raises(SystemExit) as err:
            main(["run", "--frames", str(dataset / "frames"), "--mode", mode,
                  "--out", str(tmp_path / "out")])
        assert err.value.code == 2

    def test_parallel_executor_matches(self, dataset, tmp_path):
        out_s = tmp_path / "seq"
        out_p = tmp_path / "par"
        common = ["run", "--frames", str(dataset / "frames"),
                  "--alpha", "0.2", "--flow-scale", "0.5"]
        assert main(common + ["--executor", "seq", "--out", str(out_s)]) == 0
        assert main(common + ["--executor", "par", "--out", str(out_p)]) == 0
        for fname in sorted(out_s.glob("*.pgm")):
            assert fname.read_bytes() == (out_p / fname.name).read_bytes()

    def test_feature_files_match_reference_model(self, dataset, tmp_path):
        # the class count comes from the files' channel count
        spec = model_spec_from_scene(parse_scene_config(SCENE))
        feature_dir = tmp_path / "features"
        feature_dir.mkdir()
        for frame in load_frames(dataset / "frames"):
            write_features(encode(frame, spec),
                           feature_file_path(feature_dir, frame.index))
        common = ["run", "--frames", str(dataset / "frames"),
                  "--alpha", "0.2", "--flow-scale", "0.5"]
        out_r = tmp_path / "reference"
        out_f = tmp_path / "files"
        assert main(common + ["--out", str(out_r)]) == 0
        assert main(common + ["--features", str(feature_dir),
                              "--out", str(out_f)]) == 0
        masks = sorted(out_r.glob("*.pgm"))
        assert len(masks) == 12
        for fname in masks:
            assert fname.read_bytes() == (out_f / fname.name).read_bytes()

    def test_feature_files_of_another_size_rejected(self, dataset, tmp_path,
                                                    capsys):
        feature_dir = tmp_path / "features"
        feature_dir.mkdir()
        for frame in load_frames(dataset / "frames"):
            write_features(FeatureMap(np.zeros((2, 3, 3), np.float32)),
                           feature_file_path(feature_dir, frame.index))
        code = main(["run", "--frames", str(dataset / "frames"),
                     "--features", str(feature_dir),
                     "--out", str(tmp_path / "out")])
        assert code != 0
        assert "000000.mcfe" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--frames", "f", "--out", "o"],
        ["sweep", "--frames", "f", "--gt", "g", "--out", "o"],
        ["bench", "--frames", "f", "--out", "o"]])
    def test_classes_is_not_an_option(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--classes", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("executor", ["seq", "par"])
    def test_truncated_frame_named(self, dataset, tmp_path, capsys, executor):
        # frames are read as the run goes, so the bad one fails mid-run
        frames = sorted((dataset / "frames").glob("*.ppm"))
        for extra in frames[6:]:
            extra.unlink()
        bad = frames[3]
        bad.write_bytes(bad.read_bytes()[:-10])
        code = main(["run", "--frames", str(dataset / "frames"),
                     "--executor", executor, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: truncated PNM payload" in err

    @pytest.mark.parametrize("executor", ["seq", "par"])
    @pytest.mark.parametrize("bad", [0, 3])
    def test_failed_run_keeps_the_masks_before(self, dataset, tmp_path,
                                               executor, bad):
        # masks are written as they are made; timings.csv only at the end
        frames = sorted((dataset / "frames").glob("*.ppm"))
        for extra in frames[6:]:
            extra.unlink()
        frames[bad].write_bytes(frames[bad].read_bytes()[:-10])
        out = tmp_path / "out"
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--alpha", "0.2", "--flow-scale", "0.5",
                     "--executor", executor, "--out", str(out)]) == 1
        if bad == 0:
            assert not out.exists()
        else:
            assert sorted(path.name for path in out.iterdir()) == [
                f"{j:06d}.pgm" for j in range(bad)]

    @pytest.mark.parametrize("executor", ["seq", "par"])
    def test_written_files_equal_runs_masks(self, dataset, tmp_path, executor):
        out = tmp_path / "out"
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--alpha", "0.2", "--flow-scale", "0.5",
                     "--executor", executor, "--out", str(out)]) == 0
        cfg = PipelineConfig(alpha=0.2, flow_scale=0.5, executor={
            "seq": "sequential", "par": "parallel"}[executor])
        spec = model_spec_from_scene(parse_scene_config(SCENE))
        masks, _ = run(load_frames(dataset / "frames"), cfg, spec)
        written = sorted(out.glob("*.pgm"))
        assert [path.name for path in written] == [
            f"{j:06d}.pgm" for j in range(len(masks))]
        want = tmp_path / "want.pgm"
        for path, mask in zip(written, masks):
            write_mask(mask, want)
            assert path.read_bytes() == want.read_bytes()
        rows = (out / "timings.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(
            range(len(masks)))

    @pytest.mark.parametrize("executor", ["seq", "par"])
    def test_memory_does_not_grow_with_the_clip(self, tmp_path, executor):
        # a mask is 48 KB here, and each is written as it is made, so 28
        # more frames must not hold 4 more masks. Each clip's peak is the
        # least of three runs: where the worker is when the caller reads a
        # frame moves a parallel run's peak by up to about 250 KB
        scene = tmp_path / "scene.cfg"
        scene.write_text("width = 256\nheight = 192\nframes = 32\nseed = 3\n"
                         "object = shape=disk class=1 color=200,60,60 "
                         "center=80,96 radius=30 velocity=3,1\n")
        data = tmp_path / "data"
        assert main(["generate", "--config", str(scene),
                     "--out", str(data)]) == 0
        short = tmp_path / "short"
        short.mkdir()
        for path in sorted((data / "frames").glob("*.ppm"))[:4]:
            (short / path.name).write_bytes(path.read_bytes())

        def run_clip(frames):
            assert main(["run", "--frames", str(frames),
                         "--scene", str(scene), "--alpha", "0.5",
                         "--flow-scale", "0.5", "--executor", executor,
                         "--out", str(tmp_path / "out")]) == 0

        def peak(frames):
            tracemalloc.start()
            try:
                run_clip(frames)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        run_clip(short)  # scipy's import and first-call caches
        growth = (min(peak(data / "frames") for _ in range(3))
                  - min(peak(short) for _ in range(3)))
        assert growth < 4 * 256 * 192

    def test_non_finite_lambda_exits_1(self, dataset, tmp_path, capsys):
        code = main(["run", "--frames", str(dataset / "frames"),
                     "--lambda", "nan", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "lam" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_frames_dir_exits_1(self, tmp_path):
        assert main(["run", "--frames", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_no_frames_in_dir_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("no frames here\n")
        assert main(["run", "--frames", str(empty),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: no *.ppm files in {empty}\n")
        assert not (tmp_path / "out").exists()

    def test_bad_arguments_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--frames"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--frames", "f", "--out", "o"],
        ["sweep", "--frames", "f", "--gt", "g", "--out", "o"],
        ["bench", "--frames", "f", "--out", "o"]])
    @pytest.mark.parametrize("flag", [
        "--flow-levels", "--flow-pyramid-scale", "--flow-window",
        "--flow-iterations", "--poly-n", "--poly-sigma"])
    def test_flow_settings_are_not_options(self, argv, flag):
        with pytest.raises(SystemExit) as err:
            main(argv + [flag, "3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, settings", [
        (["run", "--frames", "f", "--out", "o"],
         {"alpha", "lambda", "flow_scale", "stride"}),
        (["sweep", "--frames", "f", "--gt", "g", "--out", "o"],
         {"lambda", "flow_scale", "stride"}),
        (["bench", "--frames", "f", "--out", "o"],
         {"alpha", "lambda", "stride"})])
    def test_setting_defaults_are_the_dataclasses(self, argv, settings):
        cfg = PipelineConfig()
        defaults = {"alpha": cfg.alpha, "lambda": cfg.lam,
                    "flow_scale": cfg.flow_scale,
                    "stride": ModelSpec(feature_dir="f").feature_stride}
        args = vars(build_parser().parse_args(argv))
        assert ({key: args[key] for key in defaults if key in args}
                == {key: defaults[key] for key in settings})


class TestEvalAndSweep:
    def test_eval_baseline_rows_match_alpha_one(self, dataset, tmp_path):
        runs = {"a": tmp_path / "a", "b": tmp_path / "b"}
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--alpha", "1.0", "--flow-scale", "0.5",
                     "--out", str(runs["a"])]) == 0
        runs["b"].mkdir()
        for j, mask in enumerate(per_frame_baseline(dataset)):
            write_mask(mask, runs["b"] / f"{j:06d}.pgm")
        csv_path = tmp_path / "table.csv"
        # the disk moves at constant velocity, so every frame sits on both
        # motion-quantile boundaries
        with pytest.warns(UserWarning, match="degenerate motion"):
            assert main(["eval",
                         "--pred", f"alpha1={runs['a']}",
                         "--pred", f"baseline={runs['b']}",
                         "--gt", str(dataset / "masks"),
                         "--flows", str(dataset / "flow"),
                         "--classes", "2", "--out", str(csv_path)]) == 0
        rows = {}
        for line in csv_path.read_text().strip().splitlines()[1:]:
            method, subset, val = line.split(",")
            rows.setdefault(method, []).append((subset, val))
        assert rows["alpha1"] == rows["baseline"]

    @pytest.mark.parametrize("classes", [0, 1, 300])
    def test_eval_class_count_exits_1(self, dataset, capsys, classes):
        assert main(["eval", "--pred", f"gt={dataset / 'masks'}",
                     "--gt", str(dataset / "masks"),
                     "--flows", str(dataset / "flow"),
                     "--classes", str(classes)]) == 1
        assert capsys.readouterr().err == (
            f"error: num_classes must be in [2, 256], got {classes}\n")

    def test_eval_pred_needs_a_name_exits_1(self, dataset, capsys):
        assert main(["eval", "--pred", str(dataset / "masks"),
                     "--gt", str(dataset / "masks"),
                     "--flows", str(dataset / "flow"),
                     "--classes", "2"]) == 1
        assert capsys.readouterr().err == "error: --pred expects NAME=DIR\n"

    @pytest.mark.parametrize("names, message", [
        (("m", "m"), "repeated --pred name 'm'"),
        (("",), "--pred expects NAME=DIR")], ids=["repeated", "empty"])
    def test_eval_pred_names_distinct_and_nonempty(self, dataset, capsys,
                                                   names, message):
        preds = [arg for name in names
                 for arg in ("--pred", f"{name}={dataset / 'masks'}")]
        assert main(["eval", *preds, "--gt", str(dataset / "masks"),
                     "--flows", str(dataset / "flow"),
                     "--classes", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_eval_without_out_prints_the_csv(self, dataset, tmp_path,
                                             capsys):
        argv = ["eval", "--pred", f"gt={dataset / 'masks'}",
                "--gt", str(dataset / "masks"),
                "--flows", str(dataset / "flow"), "--classes", "2"]
        csv_path = tmp_path / "table.csv"
        with pytest.warns(UserWarning, match="degenerate motion"):
            assert main(argv + ["--out", str(csv_path)]) == 0
            assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("method,")
        assert printed == csv_path.read_text()

    def test_eval_too_few_frames_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(with_line("frames = 3"))
        data = tmp_path / "data"
        assert main(["generate", "--config", str(cfg),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--pred", f"gt={data / 'masks'}",
                     "--gt", str(data / "masks"),
                     "--flows", str(data / "flow"),
                     "--classes", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: need at least 5 labeled frames, got 3\n")

    def test_sweep_csv(self, dataset, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--frames", str(dataset / "frames"),
                     "--gt", str(dataset / "masks"),
                     "--flow-scale", "0.5", "--lambda", "1.0",
                     "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,method,miou"
        assert len(lines) == 1 + 17 * 2
        for line in lines[1:]:
            alpha, method, val = line.split(",")
            assert method in ("ema", "mcma")
            assert 0.0 <= float(val) <= 1.0


class TestBench:
    def test_bench_csv(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(SCENE.replace("frames = 12", "frames = 5"))
        data = tmp_path / "data"
        assert main(["generate", "--config", str(cfg),
                     "--out", str(data)]) == 0
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--frames", str(data / "frames"),
                     "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "stage,mean_us,std_us,mode,flow_scale"
        # 6 stage rows + 1 hz row per (scale, executor) combination
        assert len(lines) == 1 + 6 * 7

    def test_too_few_frames_exit_1_before_running(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(SCENE.replace("frames = 12", "frames = 2"))
        data = tmp_path / "data"
        assert main(["generate", "--config", str(cfg),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--frames", str(data / "frames"),
                     "--out", str(csv_path)]) == 1
        assert capsys.readouterr().err == (
            "error: bench needs at least 3 frames, got 2\n")
        assert not csv_path.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--frames", "f", "--out", "o"],
    ["sweep", "--frames", "f", "--gt", "g", "--out", "o"],
    ["bench", "--frames", "f", "--out", "o"]], ids=["run", "sweep", "bench"])
def test_scene_and_features_exclusive(argv, capsys):
    # the features replace the model the scene would build, so a run given
    # both is refused before anything is read
    with pytest.raises(SystemExit) as err:
        main(argv + ["--scene", "scene.cfg", "--features", "feats"])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


# Runs ``mcma.cli.main`` on its arguments in a fresh interpreter, then
# writes on stderr's last line whether scipy and scipy.ndimage are loaded.
CHILD = """\
import sys
from mcma.cli import main
status = main(sys.argv[1:])
print(*(name in sys.modules for name in ("scipy", "scipy.ndimage")),
      file=sys.stderr)
sys.exit(status)
"""


def scipy_loaded_after(argv):
    """(scipy, scipy.ndimage) loaded after ``mcma <argv>`` in a fresh
    process; this one has loaded scipy already, because the tests import
    it."""
    src = os.path.dirname(os.path.dirname(mcma.__file__))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(word == "True" for word in proc.stderr.split()[-2:])


class TestStartUp:
    """Only the flow solve loads scipy."""

    def test_generate_leaves_scipy_out(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(SCENE)
        assert scipy_loaded_after(["generate", "--config", str(cfg),
                                   "--out", str(tmp_path / "data")]) == (
            False, False)

    @pytest.mark.parametrize("settings", [
        ["--alpha", "1.0", "--lambda", "1.0"],
        ["--alpha", "0.5", "--lambda", "0"]], ids=["baseline", "ema"])
    def test_run_without_flow_leaves_scipy_out(self, dataset, tmp_path,
                                               settings):
        assert scipy_loaded_after(["run", "--frames", str(dataset / "frames"),
                                   *settings,
                                   "--out", str(tmp_path / "out")]) == (
            False, False)

    def test_eval_leaves_scipy_out(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--alpha", "1.0", "--out", str(out)]) == 0
        assert scipy_loaded_after(["eval", "--pred", f"baseline={out}",
                                   "--gt", str(dataset / "masks"),
                                   "--flows", str(dataset / "flow"),
                                   "--classes", "2",
                                   "--out", str(tmp_path / "table.csv")]) == (
            False, False)

    def test_flow_solve_loads_scipy_ndimage(self, dataset, tmp_path):
        assert scipy_loaded_after(["run", "--frames", str(dataset / "frames"),
                                   "--alpha", "0.5",
                                   "--lambda", "1.0", "--flow-scale", "0.5",
                                   "--out", str(tmp_path / "out")]) == (
            True, True)


class TestEntryPoint:
    """The ``mcma`` command that an install makes, and ``python -m``."""

    def test_console_script_names_main(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(__file__))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["mcma"] == "mcma.cli:main"
        module, name = scripts["mcma"].split(":")
        assert callable(getattr(importlib.import_module(module), name))

    def test_module_runs_as_a_script(self):
        src = os.path.dirname(os.path.dirname(mcma.__file__))
        proc = subprocess.run([sys.executable, "-m", "mcma.cli", "--help"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: mcma")
