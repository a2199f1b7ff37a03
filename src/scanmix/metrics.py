"""Segmentation evaluation: confusion matrix, per-class IoU, mIoU."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassTaxonomy
from .errors import DimensionError, NoEvaluatedClassesError, UnknownLabelError
from .io import _write_file


@dataclass
class ConfusionMatrix:
    """c x c counts; entry (g, p) = points with ground truth g predicted p.
    Points whose ground truth is the ignore label are never counted."""

    counts: np.ndarray
    taxonomy: ClassTaxonomy

    @classmethod
    def zeros(cls, taxonomy: ClassTaxonomy) -> "ConfusionMatrix":
        c = taxonomy.count
        return cls(np.zeros((c, c), dtype=np.int64), taxonomy)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate_confusion(
    matrix: ConfusionMatrix,
    predictions: np.ndarray,
    ground_truth: np.ndarray,
) -> ConfusionMatrix:
    """Add counts for every non-ignored ground-truth point (in place, and
    returned). Accumulation order never changes the result."""
    predictions = np.asarray(predictions)
    ground_truth = np.asarray(ground_truth)
    if predictions.shape != ground_truth.shape:
        raise DimensionError("predictions and ground truth lengths differ")
    keep = ground_truth != matrix.taxonomy.ignore_index
    g = ground_truth[keep]
    p = predictions[keep]
    c = matrix.taxonomy.count
    for arr, what in ((g, "ground-truth"), (p, "predicted")):
        bad = (arr < 0) | (arr >= c)
        if bad.any():
            raise UnknownLabelError(arr[bad][0], f"{what} label out of range")
    np.add.at(matrix.counts, (g, p), 1)
    return matrix


def compute_iou(matrix: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN when TP+FP+FN is zero) and the mean over the
    defined classes. All classes undefined raises NoEvaluatedClassesError."""
    counts = matrix.counts
    tp = np.diag(counts).astype(np.float64)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp
    denom = tp + fp + fn
    ious = np.full(matrix.taxonomy.count, np.nan)
    defined = denom > 0
    ious[defined] = tp[defined] / denom[defined]
    if not defined.any():
        raise NoEvaluatedClassesError("no class has any evaluated point")
    return ious, float(ious[defined].mean())


def write_iou_csv(path, taxonomy: ClassTaxonomy, ious: np.ndarray, miou: float) -> None:
    """One row per class (name, IoU; 'nan' when undefined), then mIoU."""
    lines = ["class,iou"]
    for name, value in zip(taxonomy.names, ious):
        lines.append(f"{name},{float(value)!r}" if np.isfinite(value) else f"{name},nan")
    lines.append(f"mIoU,{miou!r}")
    _write_file(path, "\n".join(lines) + "\n")
