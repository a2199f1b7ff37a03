import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanmix import (
    ClassTaxonomy,
    PseudoLabelConfig,
    RandomStream,
    class_ratio,
    generate_pseudo_labels,
    per_class_thresholds,
)
from scanmix.pseudo import class_counts, ratio_of_counts


def random_scores(n, c, seed):
    raw = RandomStream(seed).random((n, c))
    return raw / raw.sum(axis=1, keepdims=True)


def row_scan_oracle(scores, threshold, ignore=-1):
    """Independent per-row evaluation of the strict-threshold rule."""
    out = []
    for row in scores:
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        out.append(best if row[best] > threshold else ignore)
    return np.array(out)


class TestGlobalThreshold:
    def test_confident_row_kept(self):
        scores = np.array([[0.80, 0.15, 0.05]])
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.7))
        assert labels[0] == 0

    def test_uncertain_row_dropped(self):
        scores = np.array([[0.50, 0.30, 0.20]])
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.7))
        assert labels[0] == -1

    def test_exact_threshold_dropped(self):
        scores = np.array([[0.7, 0.2, 0.1]])
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.7))
        assert labels[0] == -1  # strict inequality

    def test_argmax_tie_lower_index(self):
        scores = np.array([[0.4, 0.4, 0.2]])
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.3))
        assert labels[0] == 0

    def test_matches_row_scan(self):
        scores = random_scores(1000, 5, seed=1)
        got = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.3))
        assert np.array_equal(got, row_scan_oracle(scores, 0.3))

    @given(st.integers(0, 1_000_000), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_threshold(self, seed, t):
        scores = random_scores(200, 4, seed=seed)
        lower = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=max(0.0, t - 0.1)))
        higher = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=t))
        assert (higher != -1).sum() <= (lower != -1).sum()

    def test_retained_satisfy_rule(self):
        scores = random_scores(500, 4, seed=2)
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.5))
        kept = labels != -1
        assert (scores[kept].max(axis=1) > 0.5).all()
        assert np.array_equal(scores[kept].argmax(axis=1), labels[kept])


class TestPerClassThresholds:
    def test_top_three_of_ten(self):
        conf = np.linspace(0.95, 0.05, 10)
        scores = np.column_stack([conf, 1 - conf])
        scores = scores[scores[:, 0] > scores[:, 1]]  # keep argmax = 0 rows
        # rebuild exactly 10 rows with argmax 0
        conf = np.linspace(0.95, 0.55, 10)
        scores = np.column_stack([conf, 1 - conf])
        thr = per_class_thresholds(scores, fraction=0.3)
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(mode="per_class_fraction", fraction=0.3))
        assert (labels != -1).sum() == 3
        assert set(np.flatnonzero(labels == 0)) == {0, 1, 2}
        assert thr[1] == 1.0  # class 1 never wins the argmax

    def test_fraction_one_retains_all(self):
        scores = random_scores(50, 3, seed=3)
        labels = generate_pseudo_labels(scores, PseudoLabelConfig(mode="per_class_fraction", fraction=1.0))
        assert (labels != -1).all()

    def test_absent_class_threshold_one(self):
        scores = np.array([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1]])
        thr = per_class_thresholds(scores, 0.5)
        assert thr[1] == 1.0 and thr[2] == 1.0

    def test_nearest_rank_counts(self):
        scores = random_scores(997, 5, seed=4)
        fraction = 0.3
        labels = generate_pseudo_labels(
            scores, PseudoLabelConfig(mode="per_class_fraction", fraction=fraction)
        )
        pred = scores.argmax(axis=1)
        for j in range(5):
            m = int((pred == j).sum())
            expect = int(np.floor(fraction * m + 1e-9))
            assert ((labels == j).sum()) == expect


class TestClassRatio:
    def test_simple_counts(self):
        tax = ClassTaxonomy("t", tuple("abcd"), ignore_index=-1)
        r = class_ratio(np.array([0, 0, 1, -1]), tax)
        assert np.allclose(r, [2 / 3, 1 / 3, 0, 0])

    def test_all_ignored_zero_vector(self, taxonomy):
        r = class_ratio(np.full(10, -1), taxonomy)
        assert (r == 0).all()

    def test_matches_histogram(self, taxonomy):
        labels = RandomStream(5).integers(-1, 3, size=1000)
        r = class_ratio(labels, taxonomy)
        valid = labels[labels != -1]
        for j in range(3):
            assert r[j] == np.count_nonzero(valid == j) / len(valid)
        assert abs(r.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("low", [-1, 0], ids=["some-ignored", "none-ignored"])
    def test_is_the_ratio_of_the_counts(self, taxonomy, low):
        labels = RandomStream(6).integers(low, 3, size=1000)
        want = class_ratio(labels, taxonomy)
        assert ratio_of_counts(class_counts(labels, taxonomy)).tobytes() == want.tobytes()
        # counts summed over parts give the ratio of the whole
        parts = np.split(labels, [100, 450, 451])
        summed = sum(class_counts(part, taxonomy) for part in parts)
        assert ratio_of_counts(summed).tobytes() == want.tobytes()

    def test_counts_of_ignored_labels_are_zero(self, taxonomy):
        counts = class_counts(np.full(10, -1), taxonomy)
        assert counts.tolist() == [0, 0, 0]
        assert ratio_of_counts(counts).tobytes() == class_ratio(np.full(10, -1), taxonomy).tobytes()
