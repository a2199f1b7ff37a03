"""Pseudo-label generation from per-point class scores.

Two retention modes: a single global confidence threshold, or per-class
thresholds chosen so a fixed fraction of each predicted class survives
(nearest-rank quantile). Filtered points receive the ignore label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassTaxonomy, _check_finite_floats

MODES = ("global_threshold", "per_class_fraction")


@dataclass(frozen=True)
class PseudoLabelConfig:
    mode: str = "global_threshold"
    threshold: float = 0.7
    fraction: float = 0.3

    def __post_init__(self):
        _check_finite_floats(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")


def per_class_thresholds(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Per-class confidence cutoffs retaining the nearest-rank count.

    For each class j, take the max-scores of the points whose argmax is j;
    the cutoff is the value just below the top floor(fraction * m) of
    them, so exactly that many points pass the strict > test when the
    confidences are distinct. Classes nobody predicts get threshold 1.0.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    n, c = scores.shape
    pred = scores.argmax(axis=1)
    conf = scores[np.arange(n), pred]
    thresholds = np.ones(c, dtype=np.float64)
    for j in range(c):
        vals = np.sort(conf[pred == j])
        m = len(vals)
        if m == 0:
            continue
        keep = int(np.floor(fraction * m + 1e-9))
        if keep >= m:
            thresholds[j] = np.nextafter(vals[0], -np.inf)
        else:
            thresholds[j] = vals[m - keep - 1]
    return thresholds


def generate_pseudo_labels(
    scores: np.ndarray,
    config: PseudoLabelConfig,
    ignore_index: int = -1,
) -> np.ndarray:
    """Argmax labels where the max score strictly exceeds its threshold,
    ignore elsewhere. Argmax ties resolve to the lower class index."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    pred = scores.argmax(axis=1)
    conf = scores[np.arange(n), pred]
    if config.mode == "global_threshold":
        cut = np.full(n, config.threshold)
    else:
        cut = per_class_thresholds(scores, config.fraction)[pred]
    return np.where(conf > cut, pred, ignore_index).astype(np.int64)


def class_counts(labels: np.ndarray, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Number of non-ignored points per class."""
    labels = np.asarray(labels)
    valid = labels[labels != taxonomy.ignore_index]
    if len(valid) == 0:
        return np.zeros(taxonomy.count, dtype=np.int64)
    return np.bincount(valid, minlength=taxonomy.count)


def ratio_of_counts(counts: np.ndarray) -> np.ndarray:
    """Each class's share of ``counts``; zero vector when all are zero.
    Counts summed over scenes give the ratio of the scenes together."""
    total = counts.sum()
    if total == 0:
        return np.zeros(len(counts), dtype=np.float64)
    return counts / total


def class_ratio(labels: np.ndarray, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Fraction of non-ignored points per class; zero vector when every
    point is ignored."""
    return ratio_of_counts(class_counts(labels, taxonomy))
