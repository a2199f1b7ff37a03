import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from scanmix import (
    Aabb,
    AugmentConfig,
    ClassTaxonomy,
    LabeledPointCloud,
    RandomStream,
    aabb_of,
    map_labels,
    standard_augment,
)
from scanmix.core import _narrow_reduce
from scanmix.errors import EmptyInputError, UnknownLabelError

from conftest import random_cloud


class TestRandomStream:
    def test_equal_seeds_equal_sequences(self):
        a, b = RandomStream(42), RandomStream(42)
        assert np.array_equal(a.random(100), b.random(100))
        assert np.array_equal(a.integers(0, 1000, size=50), b.integers(0, 1000, size=50))
        assert np.array_equal(a.permutation(20), b.permutation(20))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomStream(1).random(16), RandomStream(2).random(16))

    def test_child_streams_are_deterministic_and_independent(self):
        root = RandomStream(7)
        c1 = root.child(3)
        c2 = RandomStream(7).child(3)
        assert np.array_equal(c1.random(10), c2.random(10))
        assert not np.array_equal(RandomStream(7).child(3).random(10), RandomStream(7).child(4).random(10))

    def test_child_does_not_advance_parent(self):
        a, b = RandomStream(9), RandomStream(9)
        a.child(1)
        assert np.array_equal(a.random(5), b.random(5))


class TestTaxonomy:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ClassTaxonomy("t", ("x", "x"))

    @pytest.mark.parametrize("name", ["my tax", "a\tb", "t\u00f6y"])
    def test_name_must_be_one_ascii_header_token(self, name):
        with pytest.raises(ValueError, match="ascii without whitespace"):
            ClassTaxonomy(name, ("x", "y"))

    def test_ignore_index_collision_rejected(self):
        with pytest.raises(ValueError):
            ClassTaxonomy("t", ("x", "y"), ignore_index=1)

    def test_label_validation(self, taxonomy):
        with pytest.raises(UnknownLabelError):
            LabeledPointCloud(np.zeros((1, 3)), np.array([5]), taxonomy)
        # the ignore sentinel is always allowed
        LabeledPointCloud(np.zeros((1, 3)), np.array([taxonomy.ignore_index]), taxonomy)


class TestAabb:
    def test_single_point(self, taxonomy):
        cloud = LabeledPointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([0]), taxonomy)
        box = aabb_of(cloud)
        assert np.array_equal(box.min, [1, 2, 3])
        assert np.array_equal(box.max, [1, 2, 3])

    def test_two_points(self, taxonomy):
        cloud = LabeledPointCloud(
            np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 3.0]]), np.array([0, 1]), taxonomy
        )
        box = aabb_of(cloud)
        assert np.array_equal(box.min, [0, 0, 0])
        assert np.array_equal(box.max, [2, 1, 3])

    def test_against_linear_scan(self, taxonomy):
        cloud = random_cloud(taxonomy, n=1000, seed=3)
        box = aabb_of(cloud)
        # brute-force per-axis scan
        lo = [min(p[k] for p in cloud.positions) for k in range(3)]
        hi = [max(p[k] for p in cloud.positions) for k in range(3)]
        assert np.array_equal(box.min, lo)
        assert np.array_equal(box.max, hi)

    def test_empty_cloud(self, taxonomy):
        cloud = LabeledPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), taxonomy)
        with pytest.raises(EmptyInputError):
            aabb_of(cloud)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Aabb((1, 0, 0), (0, 1, 1))


class TestMapLabels:
    def test_identity(self, taxonomy):
        cloud = random_cloud(taxonomy, n=50, seed=1)
        out = map_labels(cloud, {0: 0, 1: 1, 2: 2}, taxonomy)
        assert np.array_equal(out.labels, cloud.labels)
        assert np.array_equal(out.positions, cloud.positions)

    def test_condense_with_ignore(self, taxonomy):
        condensed = ClassTaxonomy("c2", ("ab",), ignore_index=-1)
        cloud = LabeledPointCloud(np.zeros((3, 3)), np.array([0, 1, 2]), taxonomy)
        out = map_labels(cloud, {0: 0, 1: 0, 2: -1}, condensed)
        assert list(out.labels) == [0, 0, -1]
        assert out.taxonomy is condensed

    def test_unmapped_label_raises(self, taxonomy):
        cloud = LabeledPointCloud(np.zeros((1, 3)), np.array([2]), taxonomy)
        with pytest.raises(UnknownLabelError):
            map_labels(cloud, {0: 0, 1: 0}, taxonomy)

    def test_counts_match_recount(self):
        five = ClassTaxonomy("t5", tuple("abcde"), ignore_index=-1)
        two = ClassTaxonomy("t2", ("x", "y"), ignore_index=-1)
        cloud = random_cloud(five, n=500, seed=7)
        mapping = {0: 0, 1: 0, 2: 1, 3: 1, 4: -1}
        out = map_labels(cloud, mapping, two)
        # counting oracle: recount under the mapping point by point
        expect = {0: 0, 1: 0, -1: 0}
        for lab in cloud.labels:
            expect[mapping[int(lab)]] += 1
        assert np.count_nonzero(out.labels == 0) == expect[0]
        assert np.count_nonzero(out.labels == 1) == expect[1]
        assert np.count_nonzero(out.labels == -1) == expect[-1]


class TestStandardAugment:
    def test_all_disabled_is_identity(self, taxonomy, rng):
        cloud = random_cloud(taxonomy, n=64, seed=2)
        out = standard_augment(cloud, AugmentConfig.none(), rng)
        assert np.array_equal(out.positions, cloud.positions)
        assert np.array_equal(out.labels, cloud.labels)

    def test_shuffle_only_is_permutation(self, taxonomy, rng):
        cloud = random_cloud(taxonomy, n=64, seed=2)
        config = AugmentConfig(rotate=False, flip=False, elastic=False, jitter=False, shuffle=True)
        out = standard_augment(cloud, config, rng)
        got = {(*p, l) for p, l in zip(map(tuple, out.positions), out.labels)}
        want = {(*p, l) for p, l in zip(map(tuple, cloud.positions), cloud.labels)}
        assert got == want

    def test_rotation_preserves_distances(self, taxonomy):
        cloud = random_cloud(taxonomy, n=80, seed=5)
        config = AugmentConfig(rotate=True, flip=False, elastic=False, jitter=False, shuffle=False)
        out = standard_augment(cloud, config, RandomStream(11))
        before = pdist(cloud.positions)
        after = pdist(out.positions)
        assert np.allclose(after, before, rtol=1e-9, atol=0)

    def test_rigid_only_preserves_distances(self, taxonomy):
        cloud = random_cloud(taxonomy, n=80, seed=5)
        for seed in range(5):
            out = standard_augment(cloud, AugmentConfig(elastic=False, jitter=False, shuffle=False), RandomStream(seed))
            assert np.allclose(pdist(out.positions), pdist(cloud.positions), rtol=1e-9, atol=0)

    def test_point_count_preserved_all_steps(self, taxonomy, rng):
        cloud = random_cloud(taxonomy, n=128, seed=3, scale=2.0)
        out = standard_augment(cloud, AugmentConfig(), rng)
        assert out.n == cloud.n

    def test_deterministic_under_seed(self, taxonomy):
        cloud = random_cloud(taxonomy, n=128, seed=3, scale=2.0)
        a = standard_augment(cloud, AugmentConfig(), RandomStream(77))
        b = standard_augment(cloud, AugmentConfig(), RandomStream(77))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.labels, b.labels)

    def test_jitter_bounded(self, taxonomy):
        cloud = random_cloud(taxonomy, n=200, seed=9)
        config = AugmentConfig(rotate=False, flip=False, elastic=False, jitter=True, shuffle=False, jitter_range=0.01)
        out = standard_augment(cloud, config, RandomStream(0))
        assert np.abs(out.positions - cloud.positions).max() <= 0.01

    def test_empty_cloud_rejected(self, taxonomy, rng):
        cloud = LabeledPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), taxonomy)
        with pytest.raises(EmptyInputError):
            standard_augment(cloud, AugmentConfig(), rng)


def signed_zero_ties(gen, n, k):
    """Normal entries, each column all >= 0, all <= 0 or mixed, with one to
    five +0.0/-0.0 planted, so a column's extreme is often a tie of zeros."""
    a = gen.normal(size=(n, k))
    for j in range(k):
        sign = int(gen.integers(0, 3))
        if sign < 2:
            a[:, j] = np.abs(a[:, j]) * (1.0 if sign == 0 else -1.0)
        rows = gen.choice(n, size=min(n, int(gen.integers(1, 6))), replace=False)
        a[rows, j] = np.where(gen.random(len(rows)) < 0.5, 0.0, -0.0)
    return a


class TestNarrowReduce:
    def test_axis_0_matches_numpy_byte_for_byte(self):
        gen = RandomStream(14)
        zero_extremes = per_column_differs = 0
        for _ in range(2000):
            a = signed_zero_ties(gen, int(gen.integers(1, 400)), int(gen.integers(2, 7)))
            for ufunc, want in ((np.minimum, a.min(axis=0)), (np.maximum, a.max(axis=0))):
                assert _narrow_reduce(ufunc, a).tobytes() == want.tobytes()
                zero_extremes += int((want == 0).sum())
                plain = np.array([ufunc.reduce(a[:, j]) for j in range(a.shape[1])])
                per_column_differs += plain.tobytes() != want.tobytes()
        # the planted ties reach the zeros a plain per-column reduction signs differently
        assert zero_extremes > 1000 and per_column_differs > 0

    def test_axis_1_matches_numpy(self):
        gen = RandomStream(15)
        for _ in range(500):
            a = signed_zero_ties(gen, int(gen.integers(1, 200)), int(gen.integers(1, 9)))
            for ufunc, want in ((np.minimum, a.min(axis=1)), (np.maximum, a.max(axis=1))):
                assert np.array_equal(_narrow_reduce(ufunc, a, axis=1), want)

    @pytest.mark.parametrize("zeros", ["+", "-", "+-", "-+"])
    def test_zero_minimum_takes_the_last_zeros_sign(self, monkeypatch, zeros):
        # column 0 has a zero minimum whose zeros are only +0.0, only -0.0,
        # or both with the last of either sign; column 1 has none
        gen = np.random.default_rng(len(zeros))
        a = np.abs(gen.normal(size=(500, 2))) + 0.5
        rows = np.sort(gen.choice(500, size=40, replace=False))
        a[rows[:-1], 0] = float(zeros[0] + "0")
        a[rows[-1], 0] = float(zeros[-1] + "0")
        searches = []
        real = np.flatnonzero

        def counting(x):
            searches.append(len(x))
            return real(x)

        monkeypatch.setattr(np, "flatnonzero", counting)
        got = _narrow_reduce(np.minimum, a)
        monkeypatch.undo()
        assert got.tobytes() == a.min(axis=0).tobytes()
        assert np.signbit(got[0]) == (zeros[-1] == "-")
        # the column of zero minimum is searched only when it holds a -0.0
        assert searches == [2] + ([500] if "-" in zeros else [])

    def test_callers_keep_numpy_bounds(self, taxonomy):
        gen = RandomStream(16)
        for _ in range(50):
            pos = signed_zero_ties(gen, int(gen.integers(2, 300)), 3)
            cloud = LabeledPointCloud(pos, np.zeros(len(pos), dtype=int), taxonomy)
            box = aabb_of(cloud)
            assert box.min.tobytes() == pos.min(axis=0).tobytes()
            assert box.max.tobytes() == pos.max(axis=0).tobytes()


SRC = Path(__file__).resolve().parent.parent / "src" / "scanmix"
HELPER = "_narrow_reduce"
EXTREMES = {"min", "max", "amin", "amax", "nanmin", "nanmax"}


def axis_reductions(source: str) -> list[int]:
    """Lines of the min/max reductions along an axis in ``source`` outside
    a function named ``HELPER``: ``a.min(axis=0)``, ``a.max(1)`` and
    ``np.max(a, 1)``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == HELPER
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in EXTREMES:
            continue
        on_numpy = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        if any(k.arg == "axis" for k in node.keywords) or len(node.args) > on_numpy:
            lines.append(node.lineno)
    return lines


def test_narrow_axis_reductions_only_in_the_helper():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = {p.name: axis_reductions(p.read_text(encoding="utf-8")) for p in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_reduction_guard_bites():
    source = (
        "a.min(axis=0)\n"
        "a.max(1)\n"
        "np.max(a, 1)\n"
        "np.amin(a, axis=1)\n"
        "a.min()\n"
        "np.max(a)\n"
        "a.argmax(axis=1)\n"
        "np.minimum(a, b)\n"
        "np.minimum.at(a, i, b)\n"
        f"def {HELPER}(ufunc, a):\n"
        "    return a.min(axis=0), a.max(1)\n"
    )
    assert axis_reductions(source) == [1, 2, 3, 4]


# The footprint: importing scanmix must not load scipy.interpolate, which
# only elastic augmentation needs (about 14 MB resident and 0.2 s). A fresh
# interpreter, because this one has loaded whatever other tests imported.
_FOOTPRINT_SCRIPT = """
import sys
import numpy as np
import scanmix
print("scipy.interpolate" in sys.modules)
cloud = scanmix.LabeledPointCloud(
    np.random.default_rng(0).random((200, 3)), np.zeros(200, dtype=np.int64), scanmix.TOY_TAXONOMY
)
scanmix.standard_augment(cloud, scanmix.AugmentConfig(), scanmix.RandomStream(0))
print("scipy.interpolate" in sys.modules)
"""


def test_scipy_interpolate_loads_only_for_elastic_augmentation():
    assert AugmentConfig().elastic
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
