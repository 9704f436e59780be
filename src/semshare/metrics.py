"""Quantitative criteria: endpoint error, photometric/SSIM/smoothness
losses, cross-entropy and mIoU evaluation.

Every metric takes an explicit boolean evaluation mask and refuses empty
masks.  Reductions use numpy's row-major pairwise summation so repeated
runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, MetricUndefinedError
from .raster import FlowField, Image, LabelMap, ScoreMap

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


@dataclass
class EvalReport:
    """Per-class IoU (None marks classes absent from both maps) and the
    class mean."""

    per_class_iou: list = field(default_factory=list)
    mean_iou: float | None = None
    num_classes_in_mean: int = 0
    pixels: int = 0


def _check_mask(mask, shape):
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise DimensionError("evaluation mask must be boolean")
    if mask.shape != shape:
        raise DimensionError(f"mask shape {mask.shape} != raster shape {shape}")
    n = int(mask.sum())
    if n == 0:
        raise MetricUndefinedError("metric requested over an empty mask")
    return mask, n


def aepe(gt: FlowField, est: FlowField, mask) -> float:
    """Mean Euclidean distance between flow vectors over the mask."""
    if gt.data.shape != est.data.shape:
        raise DimensionError("flow fields must share a size")
    mask, n = _check_mask(mask, gt.data.shape[1:])
    diff = gt.data - est.data
    dist = np.sqrt(diff[0] ** 2 + diff[1] ** 2)
    return float(np.sum(dist[mask]) / n)


def l1_photometric(gt: Image, warped: Image, mask) -> float:
    """Mean over masked pixels of the channel-summed absolute intensity
    difference."""
    if gt.data.shape != warped.data.shape:
        raise DimensionError("images must share shape")
    mask, n = _check_mask(mask, gt.data.shape[1:])
    per_pixel = np.sum(np.abs(gt.data - warped.data), axis=0)
    return float(np.sum(per_pixel[mask]) / n)


def _to_single_channel(img: Image) -> np.ndarray:
    if img.channels == 1:
        return img.data[0]
    return np.mean(img.data, axis=0)


def _gaussian_window(taps: int, sigma: float) -> np.ndarray:
    offsets = np.arange(taps) - (taps - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return g / np.sum(g)


def _separable_valid(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'valid'-mode separable 2D convolution with a symmetric 1D kernel."""
    k = len(kernel)
    rows = np.lib.stride_tricks.sliding_window_view(plane, k, axis=1) @ kernel
    return np.lib.stride_tricks.sliding_window_view(rows, k, axis=0) @ kernel


def ssim(a: Image, b: Image) -> float:
    """Mean local structural similarity on the [0, 1] intensity range.

    11x11 Gaussian window with sigma 1.5, evaluated only where the full
    window fits.  RGB inputs are averaged to a single channel first.
    """
    if a.size != b.size:
        raise DimensionError("images must share a size")
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise ConfigError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    x = _to_single_channel(a)
    y = _to_single_channel(b)
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu_x = _separable_valid(x, g)
    mu_y = _separable_valid(y, g)
    var_x = _separable_valid(x * x, g) - mu_x**2
    var_y = _separable_valid(y * y, g) - mu_y**2
    cov = _separable_valid(x * y, g) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_x**2 + mu_y**2 + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return float(np.mean(num / den))


def ssim_loss(a: Image, b: Image) -> float:
    """Structural dissimilarity mapped into [0, 1]: (1 - SSIM) / 2."""
    return (1.0 - ssim(a, b)) / 2.0


def smoothness(flow: FlowField) -> float:
    """First-order flow smoothness: each forward-difference field of u and
    v contributes the mean of its absolute values."""
    if flow.height < 2 or flow.width < 2:
        raise ConfigError("smoothness needs at least a 2x2 flow field")
    total = 0.0
    for plane in (flow.dx, flow.dy):
        total += float(np.mean(np.abs(plane[:, 1:] - plane[:, :-1])))
        total += float(np.mean(np.abs(plane[1:, :] - plane[:-1, :])))
    return total


def cross_entropy(scores: ScoreMap, labels: LabelMap, mask) -> float:
    """Mean -log softmax(scores)[label] over masked pixels, stabilized by
    per-pixel max subtraction."""
    if scores.size != labels.size:
        raise DimensionError("scores and labels must share a size")
    if labels.num_classes != scores.num_classes:
        raise DimensionError("scores and labels must agree on the class count")
    mask, n = _check_mask(mask, labels.data.shape)
    s = scores.data
    m = np.max(s, axis=0)
    log_norm = m + np.log(np.sum(np.exp(s - m[None]), axis=0))
    picked = np.take_along_axis(s, labels.data[None].astype(np.int64), axis=0)[0]
    losses = log_norm - picked
    return float(np.sum(losses[mask]) / n)


class ConfusionMatrix:
    """C x C counts; entry (g, p) counts pixels with ground truth g that
    were predicted as p."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = np.array(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DimensionError(f"confusion matrix must be square, got {counts.shape}")
        if counts.min() < 0:
            raise DimensionError("confusion counts must be non-negative")
        counts.flags.writeable = False
        self.counts = counts

    @staticmethod
    def from_labels(pred: LabelMap, gt: LabelMap, mask, num_classes: int) -> "ConfusionMatrix":
        if pred.size != gt.size:
            raise DimensionError("prediction and ground truth must share a size")
        if pred.num_classes > num_classes or gt.num_classes > num_classes:
            raise DimensionError("label maps carry more classes than num_classes")
        mask, _ = _check_mask(mask, gt.data.shape)
        g = gt.data[mask].astype(np.int64)
        p = pred.data[mask].astype(np.int64)
        flat = np.bincount(num_classes * g + p, minlength=num_classes * num_classes)
        return ConfusionMatrix(flat.reshape(num_classes, num_classes))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.num_classes != other.num_classes:
            raise DimensionError("confusion matrices must share a class count")
        return ConfusionMatrix(self.counts + other.counts)

    def iou_report(self) -> EvalReport:
        tp = np.diag(self.counts).astype(float)
        gt_count = self.counts.sum(axis=1).astype(float)
        pred_count = self.counts.sum(axis=0).astype(float)
        union = gt_count + pred_count - tp
        present = union > 0
        per_class = [
            float(tp[c] / union[c]) if present[c] else None for c in range(self.num_classes)
        ]
        n_present = int(present.sum())
        mean = float(np.sum(tp[present] / union[present]) / n_present) if n_present else None
        return EvalReport(
            per_class_iou=per_class,
            mean_iou=mean,
            num_classes_in_mean=n_present,
            pixels=self.total,
        )


def miou(pred: LabelMap, gt: LabelMap, mask, num_classes: int) -> EvalReport:
    """Mean IoU over classes present in either map; absent classes are
    excluded from the mean and reported as None."""
    return ConfusionMatrix.from_labels(pred, gt, mask, num_classes).iou_report()


# ---------------------------------------------------------------------------
# Report serialization: one metric per line as "name value count".


def report_to_text(report: EvalReport) -> str:
    lines = []
    if report.per_class_iou:
        for c, value in enumerate(report.per_class_iou):
            shown = "undefined" if value is None else repr(float(value))
            lines.append(f"iou.{c} {shown} {report.pixels}")
    if report.mean_iou is not None or report.per_class_iou:
        shown = "undefined" if report.mean_iou is None else repr(float(report.mean_iou))
        lines.append(f"miou {shown} {report.num_classes_in_mean}")
    lines.append(f"pixels {report.pixels} {report.pixels}")
    return "\n".join(lines) + "\n"
