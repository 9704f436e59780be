import math

import numpy as np
import pytest

from semshare.errors import ConfigError, MetricUndefinedError
from semshare.metrics import (
    ConfusionMatrix,
    EvalReport,
    SSIM_C1,
    aepe,
    cross_entropy,
    l1_photometric,
    miou,
    report_to_text,
    smoothness,
    ssim,
    ssim_loss,
)
from semshare.raster import FlowField, Image, LabelMap, ScoreMap


def flow_of(dx, dy, size=(4, 4)):
    w, h = size
    return FlowField(np.stack([np.full((h, w), float(dx)), np.full((h, w), float(dy))]))


def full(size=(4, 4)):
    return np.ones((size[1], size[0]), dtype=bool)


class TestAepe:
    def test_identical_flows(self):
        f = flow_of(1.0, -2.0)
        assert aepe(f, f, full()) == 0.0

    def test_uniform_3_4_offset_is_exactly_5(self):
        gt = flow_of(0.0, 0.0)
        est = flow_of(3.0, 4.0)
        # per-pixel 3-4-5 oracle: every masked pixel contributes exactly 5
        assert aepe(gt, est, full()) == 5.0

    def test_half_offset_average(self):
        gt = FlowField(np.zeros((2, 4, 4)))
        est_data = np.zeros((2, 4, 4))
        est_data[1, :2, :] = 2.0  # half the pixels offset by (0, 2)
        est = FlowField(est_data)
        assert aepe(gt, est, full()) == 1.0

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(0)
        a = FlowField(rng.standard_normal((2, 5, 5)))
        b = FlowField(rng.standard_normal((2, 5, 5)))
        m = full((5, 5))
        assert aepe(a, b, m) == aepe(b, a, m)
        assert aepe(a, b, m) > 0.0

    def test_zero_iff_equal_on_mask(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((2, 4, 4))
        other = base.copy()
        other[:, 0, :] += 1.0  # differs only in the first row
        mask = full()
        mask[0, :] = False
        assert aepe(FlowField(base), FlowField(other), mask) == 0.0
        assert aepe(FlowField(base), FlowField(other), full()) > 0.0

    def test_empty_mask_rejected(self):
        f = flow_of(0, 0)
        with pytest.raises(MetricUndefinedError):
            aepe(f, f, np.zeros((4, 4), bool))


class TestL1Photometric:
    def test_identical(self):
        img = Image(np.full((1, 4, 4), 0.25))
        assert l1_photometric(img, img, full()) == 0.0

    def test_constant_difference(self):
        a = Image(np.full((1, 4, 4), 0.2))
        b = Image(np.full((1, 4, 4), 0.5))
        assert l1_photometric(a, b, full()) == pytest.approx(0.3, abs=1e-12)

    def test_single_differing_pixel(self):
        a = np.zeros((1, 10, 10))
        b = a.copy()
        b[0, 3, 7] = 1.0
        assert l1_photometric(Image(a), Image(b), full((10, 10))) == pytest.approx(0.01, abs=1e-15)

    def test_mask_restriction_recomputes_mean(self):
        rng = np.random.default_rng(1)
        a = Image(rng.random((1, 4, 4)))
        b = Image(rng.random((1, 4, 4)))
        half = np.zeros((4, 4), bool)
        half[:2] = True
        per_pixel = np.abs(a.data - b.data)[0]
        assert l1_photometric(a, b, half) == pytest.approx(per_pixel[:2].mean(), abs=1e-12)
        assert l1_photometric(a, b, full()) == pytest.approx(per_pixel.mean(), abs=1e-12)


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        img = Image(rng.random((1, 16, 16)))
        assert abs(ssim(img, img) - 1.0) < 1e-9

    def test_constant_zero_vs_one_closed_form(self):
        a = Image(np.zeros((1, 12, 12)))
        b = Image(np.ones((1, 12, 12)))
        # constant patches: variances vanish, C2 cancels, leaving C1/(1+C1)
        assert ssim(a, b) == pytest.approx(SSIM_C1 / (1.0 + SSIM_C1), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            a = Image(rng.random((1, 14, 13)))
            b = Image(rng.random((1, 14, 13)))
            assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_rgb_averaged_first(self):
        rng = np.random.default_rng(4)
        rgb = rng.random((3, 12, 12))
        gray = Image(np.mean(rgb, axis=0)[None])
        assert ssim(Image(rgb), gray) == pytest.approx(1.0, abs=1e-9)

    def test_small_image_rejected(self):
        img = Image(np.zeros((1, 8, 8)))
        with pytest.raises(ConfigError):
            ssim(img, img)


class TestSmoothness:
    def test_constant_flow(self):
        assert smoothness(flow_of(3.0, -1.0)) == 0.0

    def test_unit_ramp(self):
        w, h = 6, 5
        u = np.tile(np.arange(w, dtype=float), (h, 1))
        flow = FlowField(np.stack([u, np.zeros((h, w))]))
        assert smoothness(flow) == pytest.approx(1.0, abs=1e-12)

    def test_checkerboard(self):
        ys, xs = np.mgrid[0:4, 0:4]
        u = ((xs + ys) % 2).astype(float)
        flow = FlowField(np.stack([u, np.zeros((4, 4))]))
        # hand count: every forward difference flips between 0 and 1
        assert smoothness(flow) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_size_rejected(self):
        with pytest.raises(ConfigError):
            smoothness(FlowField(np.zeros((2, 1, 5))))


class TestUnsupervisedLoss:
    """The photometric, structural and smoothness terms the flowquality
    ablation reports."""

    def test_identical_and_zero_flow(self):
        rng = np.random.default_rng(5)
        img = Image(rng.random((1, 16, 16)))
        assert l1_photometric(img, img, full((16, 16))) == 0.0
        assert smoothness(flow_of(0, 0, (16, 16))) == 0.0
        assert abs(ssim_loss(img, img)) < 1e-9


class TestCrossEntropy:
    def test_uniform_scores_give_log_c(self):
        for c in (2, 5, 6):
            scores = ScoreMap(np.zeros((c, 3, 3)))
            labels = LabelMap(np.zeros((3, 3), dtype=int), c)
            # closed form: softmax of equal scores is 1/C everywhere
            assert cross_entropy(scores, labels, full((3, 3))) == pytest.approx(
                math.log(c), abs=1e-9
            )

    def test_saturated_true_class(self):
        data = np.zeros((3, 2, 2))
        data[1] = 20.0
        labels = LabelMap(np.ones((2, 2), dtype=int), 3)
        assert cross_entropy(ScoreMap(data), labels, full((2, 2))) < 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((4, 3, 3))
        labels = LabelMap(rng.integers(0, 4, (3, 3)).astype(np.int32), 4)
        base = cross_entropy(ScoreMap(data), labels, full((3, 3)))
        shifted = cross_entropy(ScoreMap(data + 7.0), labels, full((3, 3)))
        assert abs(base - shifted) < 1e-9

    def test_stabilized_for_large_scores(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(-1e4, 1e4, size=(3, 4, 4))
        labels = LabelMap(rng.integers(0, 3, (4, 4)).astype(np.int32), 3)
        value = cross_entropy(ScoreMap(data), labels, full((4, 4)))
        assert math.isfinite(value)


class TestMiou:
    def test_perfect_prediction(self):
        data = (np.arange(16).reshape(4, 4) % 3).astype(np.int32)
        labels = LabelMap(data, 3)
        report = miou(labels, labels, full(), 3)
        assert report.mean_iou == 1.0
        assert all(v == 1.0 for v in report.per_class_iou)

    def test_two_by_two_hand_count(self):
        gt = LabelMap(np.array([[0, 0], [1, 1]], dtype=np.int32), 6)
        pred = LabelMap(np.zeros((2, 2), dtype=np.int32), 6)
        # confusion-matrix oracle: TP0=2 FP0=2 FN0=0 -> 0.5; TP1=0 FN1=2 -> 0.0
        report = miou(pred, gt, full((2, 2)), 6)
        assert report.per_class_iou[0] == 0.5
        assert report.per_class_iou[1] == 0.0
        assert all(v is None for v in report.per_class_iou[2:])
        assert report.mean_iou == 0.25

    def test_disjoint_maps(self):
        gt = LabelMap(np.zeros((3, 3), dtype=np.int32), 2)
        pred = LabelMap(np.ones((3, 3), dtype=np.int32), 2)
        assert miou(pred, gt, full((3, 3)), 2).mean_iou == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        gt_data = rng.integers(0, 5, (8, 8)).astype(np.int32)
        pred_data = rng.integers(0, 5, (8, 8)).astype(np.int32)
        perm = rng.permutation(5).astype(np.int32)
        base = miou(LabelMap(pred_data, 5), LabelMap(gt_data, 5), full((8, 8)), 5)
        permuted = miou(
            LabelMap(perm[pred_data], 5), LabelMap(perm[gt_data], 5), full((8, 8)), 5
        )
        assert base.mean_iou == pytest.approx(permuted.mean_iou, abs=1e-12)

    def test_mask_restricts_counts(self):
        gt = LabelMap(np.array([[0, 0], [1, 1]], dtype=np.int32), 2)
        pred = LabelMap(np.array([[0, 1], [1, 1]], dtype=np.int32), 2)
        top = np.array([[True, True], [False, False]])
        report = miou(pred, gt, top, 2)
        assert report.pixels == 2
        # restricted hand count: gt row [0,0], pred row [0,1]
        assert report.per_class_iou[0] == 0.5
        assert report.per_class_iou[1] == 0.0


class TestConfusionMatrix:
    def test_counts_layout(self):
        gt = LabelMap(np.array([[0, 0, 1, 2]], dtype=np.int32), 3)
        pred = LabelMap(np.array([[0, 1, 1, 2]], dtype=np.int32), 3)
        cm = ConfusionMatrix.from_labels(pred, gt, full((4, 1)), 3)
        assert cm.counts[0, 0] == 1 and cm.counts[0, 1] == 1
        assert cm.counts[1, 1] == 1 and cm.counts[2, 2] == 1
        assert cm.total == 4

    def test_add_pools_counts(self):
        gt = LabelMap(np.zeros((2, 2), dtype=np.int32), 2)
        pred = LabelMap(np.ones((2, 2), dtype=np.int32), 2)
        cm = ConfusionMatrix.from_labels(pred, gt, full((2, 2)), 2)
        pooled = cm.add(cm)
        assert pooled.counts[0, 1] == 8


class TestReportText:
    def test_golden_text(self):
        report = EvalReport(
            per_class_iou=[0.5, None, 1.0], mean_iou=0.75, num_classes_in_mean=2, pixels=100
        )
        assert report_to_text(report) == (
            "iou.0 0.5 100\n"
            "iou.1 undefined 100\n"
            "iou.2 1.0 100\n"
            "miou 0.75 2\n"
            "pixels 100 100\n"
        )
