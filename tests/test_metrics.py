import numpy as np
import pytest

from scanmix import (
    ClassTaxonomy,
    ConfusionMatrix,
    RandomStream,
    accumulate_confusion,
    compute_iou,
    write_iou_csv,
)
from scanmix.errors import DimensionError, NoEvaluatedClassesError, UnknownLabelError


class TestAccumulate:
    def test_diagonal_counting(self, taxonomy):
        m = ConfusionMatrix.zeros(taxonomy)
        accumulate_confusion(m, np.full(10, 2), np.full(10, 2))
        assert m.counts[2, 2] == 10
        assert m.total == 10

    def test_ignored_ground_truth_excluded(self, taxonomy):
        m = ConfusionMatrix.zeros(taxonomy)
        accumulate_confusion(m, np.array([0, 1]), np.array([-1, -1]))
        assert m.total == 0

    def test_length_mismatch(self, taxonomy):
        m = ConfusionMatrix.zeros(taxonomy)
        with pytest.raises(DimensionError):
            accumulate_confusion(m, np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_out_of_range_prediction(self, taxonomy):
        m = ConfusionMatrix.zeros(taxonomy)
        with pytest.raises(UnknownLabelError):
            accumulate_confusion(m, np.array([7]), np.array([0]))

    def test_matches_nested_count_and_order_free(self, taxonomy):
        gen = RandomStream(1)
        pred = gen.integers(0, 3, size=500)
        gt = gen.integers(-1, 3, size=500)
        m1 = accumulate_confusion(ConfusionMatrix.zeros(taxonomy), pred, gt)
        # brute-force nested count
        expect = np.zeros((3, 3), dtype=int)
        for p, g in zip(pred, gt):
            if g != -1:
                expect[g, p] += 1
        assert np.array_equal(m1.counts, expect)
        # permuted order gives the same matrix
        perm = gen.permutation(500)
        m2 = accumulate_confusion(ConfusionMatrix.zeros(taxonomy), pred[perm], gt[perm])
        assert np.array_equal(m2.counts, m1.counts)


class TestIoU:
    def test_perfect_diagonal(self, taxonomy):
        m = ConfusionMatrix(np.diag([5, 3, 2]).astype(np.int64), taxonomy)
        ious, miou = compute_iou(m)
        assert np.allclose(ious, 1.0)
        assert miou == 1.0

    def test_disjoint_class_zero(self, taxonomy):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 1] = 5  # class 0 never predicted correctly
        counts[1, 1] = 1
        ious, _ = compute_iou(ConfusionMatrix(counts, taxonomy))
        assert ious[0] == 0.0

    def test_hand_computed_three_class(self, taxonomy):
        counts = np.array([[5, 1, 0], [2, 7, 1], [0, 0, 4]], dtype=np.int64)
        ious, miou = compute_iou(ConfusionMatrix(counts, taxonomy))
        assert np.allclose(ious, [5 / 8, 7 / 11, 4 / 5])
        assert np.isclose(miou, (5 / 8 + 7 / 11 + 4 / 5) / 3)

    def test_undefined_class_excluded_from_mean(self):
        tax = ClassTaxonomy("t4", tuple("abcd"), ignore_index=-1)
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 10
        counts[1, 1] = 10
        ious, miou = compute_iou(ConfusionMatrix(counts, tax))
        assert np.isnan(ious[2]) and np.isnan(ious[3])
        assert miou == 1.0

    def test_all_undefined_raises(self, taxonomy):
        with pytest.raises(NoEvaluatedClassesError):
            compute_iou(ConfusionMatrix.zeros(taxonomy))

    def test_bounds_and_mean_range(self, taxonomy):
        gen = RandomStream(2)
        counts = gen.integers(0, 50, size=(3, 3)).astype(np.int64)
        ious, miou = compute_iou(ConfusionMatrix(counts, taxonomy))
        defined = ious[np.isfinite(ious)]
        assert ((defined >= 0) & (defined <= 1)).all()
        assert defined.min() <= miou <= defined.max()


class TestCsv:
    def test_report_shape(self, taxonomy, tmp_path):
        counts = np.array([[5, 1, 0], [2, 7, 1], [0, 0, 4]], dtype=np.int64)
        ious, miou = compute_iou(ConfusionMatrix(counts, taxonomy))
        path = tmp_path / "metrics.csv"
        write_iou_csv(path, taxonomy, ious, miou)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,iou"
        assert len(lines) == 1 + taxonomy.count + 1
        assert lines[-1].startswith("mIoU,")
        assert float(lines[-1].split(",")[1]) == miou

    def test_every_row_parses_as_a_float(self, taxonomy, tmp_path):
        # the third class is never seen, so its IoU is undefined
        counts = np.array([[5, 1, 0], [2, 7, 0], [0, 0, 0]], dtype=np.int64)
        ious, miou = compute_iou(ConfusionMatrix(counts, taxonomy))
        path = tmp_path / "metrics.csv"
        write_iou_csv(path, taxonomy, ious, miou)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [name for name, _ in rows] == [*taxonomy.names, "mIoU"]
        values = [float(value) for _, value in rows]
        assert values[:2] == ious[:2].tolist() and np.isnan(values[2])
        assert values[-1] == miou
