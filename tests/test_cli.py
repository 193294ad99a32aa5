import os

import numpy as np
import pytest

from mcma import (FeatureMap, SceneSpec, model_spec_from_scene,
                  write_features)
from mcma.cli import load_frames, main, parse_scene_config
from mcma.model import encode, feature_file_path

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


@pytest.fixture
def dataset(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENE)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


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

    def test_layout(self, dataset):
        assert len(list((dataset / "frames").glob("*.ppm"))) == 12
        assert (dataset / "scene.cfg").exists()


class TestRun:
    def test_alpha_one_equals_baseline(self, dataset, tmp_path):
        out_a = tmp_path / "mcma_a1"
        out_b = tmp_path / "baseline"
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--mode", "mcma", "--alpha", "1.0",
                     "--flow-scale", "0.5", "--out", str(out_a)]) == 0
        assert main(["run", "--frames", str(dataset / "frames"),
                     "--mode", "baseline", "--out", str(out_b)]) == 0
        for fname in sorted(os.listdir(out_a)):
            if fname.endswith(".pgm"):
                assert (out_a / fname).read_bytes() == \
                    (out_b / fname).read_bytes()
        assert (out_a / "timings.csv").exists()

    def test_parallel_executor_matches(self, dataset, tmp_path):
        out_s = tmp_path / "seq"
        out_p = tmp_path / "par"
        common = ["run", "--frames", str(dataset / "frames"), "--mode",
                  "mcma", "--alpha", "0.2", "--flow-scale", "0.5"]
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
        common = ["run", "--frames", str(dataset / "frames"), "--mode",
                  "mcma", "--alpha", "0.2", "--flow-scale", "0.5"]
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

    def test_missing_frames_dir_exits_1(self, tmp_path):
        assert main(["run", "--frames", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 1

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


class TestEvalAndSweep:
    def test_eval_baseline_rows_match_alpha_one(self, dataset, tmp_path):
        runs = {}
        for name, mode, alpha in [("a", "mcma", "1.0"),
                                  ("b", "baseline", "0.5")]:
            out = tmp_path / name
            assert main(["run", "--frames", str(dataset / "frames"),
                         "--mode", mode, "--alpha", alpha,
                         "--flow-scale", "0.5", "--out", str(out)]) == 0
            runs[name] = out
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
