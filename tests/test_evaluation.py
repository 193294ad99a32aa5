import numpy as np
import pytest

import mcma.evaluation
from mcma import (FlowField, SegmentationMask, evaluate_run, fp_rate, miou,
                  motion_in_input_pixels, motion_quantile_partition,
                  report_csv)
from mcma.evaluation import SUBSETS, pooled_miou


def mask(arr):
    return SegmentationMask(np.asarray(arr, np.uint8))


def brute_miou(pred, gt, num_classes):
    """Independent set-arithmetic oracle."""
    ious = []
    for cls in range(num_classes):
        inter = union = 0
        for p, g in zip(pred.ravel(), gt.ravel()):
            if p == cls and g == cls:
                inter += 1
            if p == cls or g == cls:
                union += 1
        if union:
            ious.append(inter / union)
    return sum(ious) / len(ious) if ious else float("nan")


def brute_fp(pred, gt, cls):
    return sum(1 for p, g in zip(pred.ravel(), gt.ravel())
               if p == cls and g != cls) / pred.size


class TestMiou:
    def test_perfect(self, rng):
        m = mask(rng.integers(0, 3, (6, 6)))
        assert miou(m, m, 3)[0] == 1.0

    def test_half_overlap(self):
        gt = mask([[1, 1, 0, 0]] * 2)
        pred = mask([[1, 0, 0, 0]] * 2)
        mean, ious = miou(pred, gt, 2)
        assert ious[1] == pytest.approx(0.5)

    def test_absent_class_excluded(self):
        gt = mask([[0, 0], [1, 1]])
        pred = mask([[0, 0], [1, 0]])
        mean, ious = miou(pred, gt, 4)
        assert np.isnan(ious[2]) and np.isnan(ious[3])
        assert mean == pytest.approx((2 / 3 + 1 / 2) / 2, abs=1e-12)
        assert mean == pytest.approx(brute_miou(pred.labels, gt.labels, 4))

    def test_symmetry(self, rng):
        a = mask(rng.integers(0, 3, (5, 5)))
        b = mask(rng.integers(0, 3, (5, 5)))
        assert miou(a, b, 3)[0] == pytest.approx(miou(b, a, 3)[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            miou(mask([[0, 0]]), mask([[0], [0]]), 2)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            miou(np.array([[-1, 0], [1, 1]]), np.array([[0, 0], [1, 1]]), 2)
        with pytest.raises(ValueError):
            miou(np.array([[0, 0], [1, 1]]), np.array([[0, -1], [1, 1]]), 2)

    def test_against_brute_force(self, rng):
        for _ in range(100):
            pred = rng.integers(0, 4, (8, 8))
            gt = rng.integers(0, 4, (8, 8))
            got = miou(mask(pred), mask(gt), 4)[0]
            assert got == pytest.approx(brute_miou(pred, gt, 4), abs=1e-12)

    def test_pooled_equals_one_stacked_frame(self, rng):
        # summing counts over frames is the mIoU of the frames side by side
        preds = [rng.integers(0, 3, (4, 5)) for _ in range(3)]
        gts = [rng.integers(0, 3, (4, 5)) for _ in range(3)]
        got = pooled_miou([mask(p) for p in preds], [mask(g) for g in gts], 3)
        want = brute_miou(np.hstack(preds), np.hstack(gts), 3)
        assert got == pytest.approx(want, abs=1e-12)
        assert np.isnan(pooled_miou([], [], 3))
        with pytest.raises(ValueError):
            pooled_miou([mask(preds[0])], [], 3)


class TestFpRate:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError,
                           match="^mask dimensions must match$") as err:
            fp_rate(mask([[0, 0]]), mask([[0], [0]]), 1)
        assert err.type is ValueError

    def test_never_predicted(self):
        assert fp_rate(mask([[0, 0]] * 2), mask([[1, 1]] * 2), 2) == 0.0

    def test_all_wrong(self):
        assert fp_rate(mask([[2, 2]] * 2), mask([[0, 1]] * 2), 2) == 1.0

    def test_counting_oracle_fraction(self):
        # 3640 false class-1 pixels in a 640x512 mask is a rate of ~1.11%
        pred = np.zeros((512, 640), np.uint8)
        gt = np.zeros((512, 640), np.uint8)
        pred.ravel()[:3640] = 1
        rate = fp_rate(mask(pred), mask(gt), 1)
        assert rate == pytest.approx(3640 / (512 * 640))
        assert rate == pytest.approx(0.0111, abs=1e-4)

    def test_against_brute_force(self, rng):
        for _ in range(100):
            pred = rng.integers(0, 3, (8, 8))
            gt = rng.integers(0, 3, (8, 8))
            assert fp_rate(mask(pred), mask(gt), 1) == pytest.approx(
                brute_fp(pred, gt, 1), abs=1e-12)

    def test_monotone_in_fp_count(self):
        gt = np.zeros((4, 4), np.uint8)
        rates = []
        for k in range(4):
            pred = np.zeros((4, 4), np.uint8)
            pred.ravel()[:k] = 1
            rates.append(fp_rate(mask(pred), mask(gt), 1))
        assert rates == sorted(rates)


def order_stat_quantile(values, q):
    """Independent linear-interpolation order-statistic oracle."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


class TestMotionPartition:
    def test_one_to_ten(self):
        motions = list(range(1, 11))
        part = motion_quantile_partition(motions)
        assert part.low_threshold == pytest.approx(2.8)
        assert part.high_threshold == pytest.approx(8.2)
        assert part.low == [0, 1]
        assert part.high == [8, 9]
        assert part.mid == [2, 3, 4, 5, 6, 7]

    def test_degenerate_all_equal(self):
        with pytest.warns(UserWarning):
            part = motion_quantile_partition([3.0] * 8)
        assert part.degenerate
        assert part.low == part.high == list(range(8))
        assert part.mid == []

    def test_single_outlier(self):
        motions = [0.0] * 99 + [100.0]
        part = motion_quantile_partition(motions)
        assert 99 in part.high

    def test_too_few(self):
        with pytest.raises(ValueError):
            motion_quantile_partition([1, 2, 3, 4])

    def test_disjoint_cover(self, rng):
        motions = rng.normal(5, 2, 40).tolist()
        part = motion_quantile_partition(motions)
        combined = sorted(part.low + part.mid + part.high)
        assert combined == list(range(40))

    def test_thresholds_against_oracle(self, rng):
        for _ in range(100):
            motions = rng.uniform(0, 10, rng.integers(5, 30)).tolist()
            part = motion_quantile_partition(motions)
            assert part.low_threshold == pytest.approx(
                order_stat_quantile(motions, 0.2), abs=1e-9)
            assert part.high_threshold == pytest.approx(
                order_stat_quantile(motions, 0.8), abs=1e-9)


class TestEvaluateRun:
    def _inputs(self, n=10, h=8, w=8, seed=0):
        rng = np.random.default_rng(seed)
        gts = [mask(rng.integers(0, 2, (h, w))) for _ in range(n)]
        preds = [mask(rng.integers(0, 2, (h, w))) for _ in range(n)]
        flows = [FlowField(np.full((h, w), float(i), np.float32),
                           np.zeros((h, w), np.float32)) for i in range(n)]
        return preds, gts, flows

    def test_identical_methods_identical_rows(self):
        preds, gts, flows = self._inputs()
        rows = evaluate_run({"baseline": preds, "mcma": preds}, gts, flows, 2)
        by_method = {}
        for method, subset, val in rows:
            by_method.setdefault(method, []).append((subset, val))
        assert by_method["baseline"] == by_method["mcma"]

    def test_no_labeled_frames_rejected(self):
        with pytest.raises(ValueError):
            evaluate_run({"m": []}, [], [], 2)

    def test_missing_flow_rejected(self):
        preds, gts, flows = self._inputs()
        flows[3] = None
        with pytest.raises(ValueError):
            evaluate_run({"m": preds}, gts, flows, 2)

    @pytest.mark.parametrize("short, message", [
        ("flows", "need one flow per labeled frame"),
        ("preds", "method 'm' has 9 masks, expected 10")])
    def test_misaligned_inputs_rejected(self, short, message):
        preds, gts, flows = self._inputs()
        args = {"preds": preds, "flows": flows}
        args[short] = args[short][:-1]
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            evaluate_run({"m": args["preds"]}, gts, args["flows"], 2)
        assert err.type is ValueError

    @pytest.mark.parametrize("num_classes", [2.5, True])
    def test_class_count_is_an_integer(self, num_classes):
        # not failed on inside NumPy, nor read as 1
        preds, gts, flows = self._inputs()
        with pytest.raises(ValueError,
                           match="^num_classes must be an integer$"):
            evaluate_run({"m": preds}, gts, flows, num_classes)

    def test_perfect_prediction_scores_one(self):
        _, gts, flows = self._inputs()
        rows = evaluate_run({"m": gts}, gts, flows, 2)
        for _, _, val in rows:
            assert val == 1.0

    def test_motion_rescaled_to_input_pixels(self):
        # a quarter-scale field with u = 1 spans 4 input pixels
        flow = FlowField(np.ones((4, 4), np.float32),
                         np.zeros((4, 4), np.float32))
        assert motion_in_input_pixels(flow, 16, 16) == pytest.approx(4.0)

    def test_csv_shape(self):
        preds, gts, flows = self._inputs()
        csv = report_csv(evaluate_run({"m": preds}, gts, flows, 2))
        lines = csv.strip().splitlines()
        assert lines[0] == "method,subset,miou"
        assert len(lines) == 1 + 4

    def test_per_video_partition(self, monkeypatch):
        # one clip, split once at its own 20% and 80% motion quantiles
        motions = [3, 12, 0, 15, 5, 10, 1, 14, 4, 11, 2, 13]
        n = len(motions)
        preds, gts, _ = self._inputs(n=n)
        flows = [FlowField(np.full((8, 8), float(m), np.float32),
                           np.zeros((8, 8), np.float32)) for m in motions]
        pooled = []  # clip positions of each pooled_miou call's frames

        def spy(subset_preds, subset_gts, num_classes):
            subset_preds = list(subset_preds)
            pooled.append([next(k for k, p in enumerate(preds) if p is q)
                           for q in subset_preds])
            return pooled_miou(subset_preds, subset_gts, num_classes)

        monkeypatch.setattr(mcma.evaluation, "pooled_miou", spy)
        rows = evaluate_run({"m": preds}, gts, flows, 2)
        assert [subset for _, subset, _ in rows] == list(SUBSETS)
        part = motion_quantile_partition(motions)
        assert pooled == [list(range(n)), part.low, part.mid, part.high]
        assert part.low == [2, 6, 10] and part.high == [3, 7, 11]
