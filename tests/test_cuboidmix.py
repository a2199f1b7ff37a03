from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from scanmix import (
    TOY_TAXONOMY,
    ClassTaxonomy,
    CuboidMixConfig,
    LabeledPointCloud,
    RandomStream,
    TailCuboidQueue,
    class_ratio,
    classify_tail_cuboids,
    mix_cuboids,
    partition_cuboids,
    permute_cuboids,
    compose_mixed_scene,
    load_config,
    load_manifest,
    load_scenes,
    make_toy_benchmark,
    update_tail_queue,
)
from scanmix.cuboidmix import (
    PROV_QUEUE,
    PROV_SOURCE,
    PROV_TARGET,
    Cuboid,
    QueuedCuboid,
    _axis_boundaries,
    tail_classes_of,
)
from scanmix.errors import DegeneratePartitionError, DimensionError, ShapeMismatchError

from conftest import random_cloud


def brute_force_membership(cloud, cset):
    """Per-point bound check: lower faces closed, upper open except the
    last cell per axis."""
    assign = {}
    bounds_arrays = (cset.xb, cset.yb, cset.zb)
    for pi, p in enumerate(cloud.positions):
        cell = []
        for axis in range(3):
            b = bounds_arrays[axis]
            idx = None
            for i in range(len(b) - 1):
                last = i == len(b) - 2
                if b[i] <= p[axis] < b[i + 1] or (last and b[i] <= p[axis] <= b[i + 1]):
                    idx = i
                    break
            cell.append(idx)
        assign[pi] = tuple(cell)
    return assign


class TestPartition:
    def test_single_cell_is_aabb(self, taxonomy):
        cloud = random_cloud(taxonomy, n=200, seed=1)
        cset = partition_cuboids(cloud, CuboidMixConfig(nx=1, ny=1, nz=1, min_tail_cuboids=1), RandomStream(0))
        assert len(cset.cuboids) == 1
        cub = cset.cuboids[0]
        assert len(cub.members) == cloud.n
        assert np.allclose(cub.bounds[:3], cloud.positions.min(axis=0))
        assert np.allclose(cub.bounds[3:], cloud.positions.max(axis=0))

    def test_equal_division_without_perturbation(self, taxonomy):
        pos = np.array([[0, 0, 0], [1, 1, 1], [0.2, 0.7, 0.5], [0.7, 0.2, 0.5]], dtype=float)
        cloud = LabeledPointCloud(pos, np.zeros(4, dtype=int), taxonomy)
        config = CuboidMixConfig(nx=2, ny=2, nz=1, delta_phi=0.0)
        cset = partition_cuboids(cloud, config, RandomStream(0))
        assert np.allclose(cset.xb, [0, 0.5, 1])
        assert np.allclose(cset.yb, [0, 0.5, 1])
        assert len(cset.cuboids) == 4

    def test_membership_matches_brute_force(self, taxonomy):
        cloud = random_cloud(taxonomy, n=400, seed=2, scale=3.0)
        config = CuboidMixConfig(nx=2, ny=2, nz=1, delta_phi=0.1)
        cset = partition_cuboids(cloud, config, RandomStream(9))
        expect = brute_force_membership(cloud, cset)
        for cub in cset.cuboids:
            for pi in cub.members:
                assert expect[int(pi)] == cub.cell

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 1, 2), (3, 2, 2)])
    def test_disjoint_exhaustive(self, taxonomy, shape):
        for seed in range(5):
            cloud = random_cloud(taxonomy, n=300, seed=seed, scale=4.0)
            config = CuboidMixConfig(nx=shape[0], ny=shape[1], nz=shape[2], delta_phi=0.1,
                                     min_tail_cuboids=min(2, shape[0] * shape[1] * shape[2]))
            cset = partition_cuboids(cloud, config, RandomStream(seed))
            seen = np.concatenate([c.members for c in cset.cuboids])
            assert len(seen) == cloud.n
            assert len(np.unique(seen)) == cloud.n

    @given(
        nx=st.integers(1, 3), ny=st.integers(1, 3), nz=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, nx, ny, nz, seed):
        from scanmix import ClassTaxonomy

        tax = ClassTaxonomy("t", ("a", "b"), ignore_index=-1)
        cloud = random_cloud(tax, n=120, seed=seed, scale=5.0)
        config = CuboidMixConfig(nx=nx, ny=ny, nz=nz, delta_phi=0.1,
                                 min_tail_cuboids=min(2, nx * ny * nz))
        cset = partition_cuboids(cloud, config, RandomStream(seed))
        seen = np.concatenate([c.members for c in cset.cuboids])
        assert len(seen) == cloud.n and len(np.unique(seen)) == cloud.n
        for b in (cset.xb, cset.yb, cset.zb):
            assert (np.diff(b) > 0).all()

    def test_degenerate_extent_raises(self, taxonomy):
        pos = np.array([[0, 0, 0], [0, 1, 1]], dtype=float)  # zero x extent
        cloud = LabeledPointCloud(pos, np.zeros(2, dtype=int), taxonomy)
        config = CuboidMixConfig(nx=2, ny=1, nz=1, delta_phi=0.1)
        with pytest.raises(DegeneratePartitionError):
            partition_cuboids(cloud, config, RandomStream(0))

    @pytest.mark.parametrize("depth, ny", [(0.1, 2), (0.04, 2), (0.04, 4), (1e-9, 3)])
    def test_thin_extent_partitions(self, taxonomy, depth, ny):
        # too thin for delta_phi=0.1: the perturbation shrinks to a quarter
        # cell, and the boundaries stay strictly increasing
        gen = RandomStream(8)
        pos = np.column_stack([gen.uniform(0, 2, 300), gen.uniform(0, depth, 300), gen.uniform(0, 1, 300)])
        cloud = LabeledPointCloud(pos, np.zeros(300, dtype=int), taxonomy)
        config = CuboidMixConfig(nx=2, ny=ny, nz=1, delta_phi=0.1)
        cset = partition_cuboids(cloud, config, RandomStream(0))
        lo, hi = pos[:, 1].min(), pos[:, 1].max()
        assert cset.yb[0] == lo and cset.yb[-1] == hi
        assert (np.diff(cset.yb) > 0).all()
        width = (hi - lo) / ny
        base = lo + np.arange(1, ny) / ny * (hi - lo)
        assert (np.abs(cset.yb[1:-1] - base) <= 0.25 * width * (1 + 1e-9)).all()
        seen = np.concatenate([c.members for c in cset.cuboids])
        assert len(seen) == cloud.n and len(np.unique(seen)) == cloud.n

    def test_thin_extent_draws_as_many_uniforms(self, taxonomy):
        gen = RandomStream(9)
        thick = gen.uniform(0, 2, (200, 3))
        thin = thick * np.array([1.0, 0.02, 1.0])
        config = CuboidMixConfig(nx=2, ny=3, nz=2, delta_phi=0.1)
        after = []
        for pos in (thick, thin):
            rng = RandomStream(4)
            partition_cuboids(LabeledPointCloud(pos, np.zeros(200, dtype=int), taxonomy), config, rng)
            after.append(rng.random())
        assert after[0] == after[1]


class TestPermute:
    def test_probability_zero_is_identity(self, taxonomy):
        cloud = random_cloud(taxonomy, n=100, seed=3, scale=2.0)
        cset = partition_cuboids(cloud, CuboidMixConfig(), RandomStream(1))
        out = permute_cuboids(cset, 0.0, RandomStream(2))
        assert out is cset

    def test_forced_swap_two_cells(self, taxonomy):
        cloud = random_cloud(taxonomy, n=200, seed=4, scale=2.0)
        config = CuboidMixConfig(nx=2, ny=1, nz=1, delta_phi=0.0)
        cset = partition_cuboids(cloud, config, RandomStream(1))
        # find a seed whose permutation actually swaps the two cells
        for seed in range(50):
            probe = RandomStream(seed)
            probe.random()
            if list(probe.permutation(2)) == [1, 0]:
                break
        out = permute_cuboids(cset, 1.0, RandomStream(seed))
        for orig, moved_cell in zip(cset.cuboids, [(1, 0, 0), (0, 0, 0)]):
            match = [c for c in out.cuboids if np.array_equal(np.sort(c.members), np.sort(orig.members))]
            assert len(match) == 1
            assert match[0].cell == moved_cell
        # rigid translation: inner distances unchanged
        for orig in cset.cuboids:
            a = cset.cloud.positions[orig.members]
            match = [c for c in out.cuboids if np.array_equal(np.sort(c.members), np.sort(orig.members))][0]
            b = out.cloud.positions[match.members]
            assert np.allclose(pdist(b), pdist(a), rtol=1e-9, atol=1e-12)

    def test_permutation_rate(self, taxonomy):
        cloud = random_cloud(taxonomy, n=60, seed=5, scale=2.0)
        cset = partition_cuboids(cloud, CuboidMixConfig(delta_phi=0.0), RandomStream(1))
        permuted = 0
        for seed in range(1000):
            out = permute_cuboids(cset, 0.5, RandomStream(seed))
            permuted += out is not cset
        assert abs(permuted / 1000 - 0.5) <= 0.05


# not a finite vector with one entry per class of the 3-class taxonomy
BAD_RATIOS = [
    [0.5, 0.5], [0.2] * 5, [[0.5, 0.3, 0.2]], [0.5, np.nan, 0.5], [0.5, np.inf, 0.0],
]


class TestClassifyTail:
    def test_zero_tail_points_not_tail(self, taxonomy):
        cloud = LabeledPointCloud(np.random.default_rng(0).random((50, 3)), np.zeros(50, dtype=int), taxonomy)
        cset = partition_cuboids(cloud, CuboidMixConfig(nx=1, ny=1, nz=1, min_tail_cuboids=1), RandomStream(0))
        ratios = np.array([0.5, 0.3, 0.2])
        assert not classify_tail_cuboids(cset, ratios, 2).any()

    def test_rule_application(self, taxonomy):
        # 40% of class 2 in the cuboid vs dataset ratio 0.2 -> tail
        labels = np.array([2, 2, 0, 0, 1])
        cloud = LabeledPointCloud(np.random.default_rng(1).random((5, 3)), labels, taxonomy)
        cset = partition_cuboids(cloud, CuboidMixConfig(nx=1, ny=1, nz=1, min_tail_cuboids=1), RandomStream(0))
        ratios = np.array([0.5, 0.3, 0.2])
        assert classify_tail_cuboids(cset, ratios, 2).all()

    def test_ignored_points_excluded(self, taxonomy):
        labels = np.array([2, -1, -1, -1])
        cloud = LabeledPointCloud(np.random.default_rng(2).random((4, 3)), labels, taxonomy)
        cset = partition_cuboids(cloud, CuboidMixConfig(nx=1, ny=1, nz=1, min_tail_cuboids=1), RandomStream(0))
        # class 2 fraction among labeled = 1.0 > 0.2
        assert classify_tail_cuboids(cset, np.array([0.5, 0.3, 0.2]), 2).all()

    @pytest.mark.parametrize("ratios", BAD_RATIOS)
    def test_bad_ratios_rejected(self, taxonomy, ratios):
        cset = partition_cuboids(random_cloud(taxonomy, n=100, seed=3), CuboidMixConfig(), RandomStream(0))
        with pytest.raises(DimensionError):
            classify_tail_cuboids(cset, ratios, 2)

    def test_matches_brute_force(self, taxonomy):
        ratios = np.array([0.55, 0.35, 0.10])
        for seed in range(10):
            cloud = random_cloud(taxonomy, n=300, seed=seed, scale=3.0)
            cset = partition_cuboids(cloud, CuboidMixConfig(), RandomStream(seed))
            flags = classify_tail_cuboids(cset, ratios, 2)
            tails = [2, 1]  # two smallest positive ratios
            for cub, flag in zip(cset.cuboids, flags):
                sub = [int(l) for l in cloud.labels[cub.members] if l != -1]
                expect = False
                if sub:
                    for t in tails:
                        if sub.count(t) / len(sub) > ratios[t]:
                            expect = True
                assert flag == expect


class TestQueue:
    def make_entry(self, k, n=5):
        return QueuedCuboid(np.full((n, 3), float(k)), np.zeros(n, dtype=int), np.ones(3))

    def test_fifo_eviction_by_capacity(self):
        queue = TailCuboidQueue(256)
        for k in range(300):
            queue.push(self.make_entry(k))
        assert len(queue) == 256
        assert queue.get(0).positions[0, 0] == 44.0  # first 44 evicted

    def test_no_tail_no_change(self, taxonomy):
        cloud = random_cloud(taxonomy, n=50, seed=1)
        cset = partition_cuboids(cloud, CuboidMixConfig(), RandomStream(0))
        queue = TailCuboidQueue(8)
        update_tail_queue(queue, cset, np.zeros(len(cset.cuboids), dtype=bool))
        assert len(queue) == 0

    def test_replay_matches_reference_fifo(self, taxonomy):
        capacity = 7
        queue = TailCuboidQueue(capacity)
        reference = []
        rng = RandomStream(3)
        for seed in range(20):
            cloud = random_cloud(taxonomy, n=80, seed=seed, scale=2.0)
            cset = partition_cuboids(cloud, CuboidMixConfig(), RandomStream(seed))
            flags = rng.random(len(cset.cuboids)) < 0.4
            update_tail_queue(queue, cset, flags)
            for cub, f in zip(cset.cuboids, flags):
                if f:
                    reference.append(cloud.positions[cub.members] - cub.bounds[:3])
                    if len(reference) > capacity:
                        reference.pop(0)
        assert len(queue) == len(reference)
        for entry, want in zip(queue.entries(), reference):
            assert np.array_equal(entry.positions, want)

    def test_canonical_frame(self, taxonomy):
        cloud = random_cloud(taxonomy, n=100, seed=2, scale=3.0)
        cset = partition_cuboids(cloud, CuboidMixConfig(), RandomStream(1))
        queue = TailCuboidQueue(16)
        update_tail_queue(queue, cset, np.ones(len(cset.cuboids), dtype=bool))
        for entry in queue.entries():
            assert (entry.positions >= -1e-12).all()
            assert (entry.positions <= entry.size + 1e-12).all()


class TestMix:
    def make_pair(self, taxonomy, seed=0):
        src = random_cloud(taxonomy, n=240, seed=seed, scale=3.0)
        tgt = random_cloud(taxonomy, n=200, seed=seed + 100, scale=3.0)
        config = CuboidMixConfig(delta_phi=0.05)
        rng = RandomStream(seed)
        return (
            partition_cuboids(src, config, rng, provenance=PROV_SOURCE),
            partition_cuboids(tgt, config, rng, provenance=PROV_TARGET),
        )

    def test_rho_zero_keeps_target(self, taxonomy):
        src_set, tgt_set = self.make_pair(taxonomy)
        mixed = mix_cuboids(src_set, tgt_set, 0.0, RandomStream(1))
        assert mixed.cloud.n == tgt_set.cloud.n
        assert all(c.provenance == PROV_TARGET for c in mixed.cuboids)
        # same multiset of points, re-ordered by cell
        assert sorted(map(tuple, mixed.cloud.positions)) == sorted(map(tuple, tgt_set.cloud.positions))

    def test_rho_one_takes_all_source(self, taxonomy):
        src_set, tgt_set = self.make_pair(taxonomy, seed=2)
        mixed = mix_cuboids(src_set, tgt_set, 1.0, RandomStream(1))
        assert mixed.cloud.n == src_set.cloud.n
        assert all(c.provenance == PROV_SOURCE for c in mixed.cuboids)

    def test_label_provenance_soundness(self, taxonomy):
        src_set, tgt_set = self.make_pair(taxonomy, seed=3)
        mixed = mix_cuboids(src_set, tgt_set, 0.5, RandomStream(7))
        for cub in mixed.cuboids:
            donor = src_set if cub.provenance == PROV_SOURCE else tgt_set
            donor_cub = [c for c in donor.cuboids if c.cell == cub.cell][0]
            assert np.array_equal(
                mixed.cloud.labels[cub.members], donor.cloud.labels[donor_cub.members]
            )

    def test_translation_is_rigid(self, taxonomy):
        src_set, tgt_set = self.make_pair(taxonomy, seed=4)
        mixed = mix_cuboids(src_set, tgt_set, 1.0, RandomStream(3))
        for cub, src_cub in zip(mixed.cuboids, src_set.cuboids):
            a = src_set.cloud.positions[src_cub.members]
            b = mixed.cloud.positions[cub.members]
            if len(a) >= 2:
                assert np.allclose(pdist(b), pdist(a), rtol=1e-9, atol=1e-12)

    def test_shape_mismatch(self, taxonomy):
        src = random_cloud(taxonomy, n=100, seed=5, scale=3.0)
        tgt = random_cloud(taxonomy, n=100, seed=6, scale=3.0)
        a = partition_cuboids(src, CuboidMixConfig(nx=2, ny=2, nz=1), RandomStream(0))
        b = partition_cuboids(tgt, CuboidMixConfig(nx=3, ny=1, nz=1), RandomStream(0))
        with pytest.raises(ShapeMismatchError):
            mix_cuboids(a, b, 0.5, RandomStream(0))

    def test_taxonomy_mismatch(self, taxonomy):
        other = ClassTaxonomy("other", taxonomy.names, taxonomy.ignore_index)
        a = partition_cuboids(random_cloud(other, n=100, seed=5, scale=3.0), CuboidMixConfig(), RandomStream(0))
        b = partition_cuboids(random_cloud(taxonomy, n=100, seed=6, scale=3.0), CuboidMixConfig(), RandomStream(0))
        with pytest.raises(ShapeMismatchError):
            mix_cuboids(a, b, 0.5, RandomStream(0))

    def test_mean_replaced_cells(self, taxonomy):
        src_set, tgt_set = self.make_pair(taxonomy, seed=8)
        total = 0
        for seed in range(1000):
            mixed = mix_cuboids(src_set, tgt_set, 0.5, RandomStream(seed))
            total += sum(c.provenance == PROV_SOURCE for c in mixed.cuboids)
        assert abs(total / 1000 - 2.0) <= 0.15


class TestCompose:
    def all_class0_cloud(self, taxonomy, n, seed, scale=4.0):
        gen = RandomStream(seed)
        return LabeledPointCloud(gen.uniform(0, scale, (n, 3)), np.zeros(n, dtype=int), taxonomy)

    def test_no_queue_no_tail_equals_plain_mix(self, taxonomy):
        src = self.all_class0_cloud(taxonomy, 200, 1)
        tgt = self.all_class0_cloud(taxonomy, 200, 2)
        config = CuboidMixConfig(min_tail_cuboids=2)
        ratios = np.array([1.0, 0.0, 0.0])
        result = compose_mixed_scene(src, tgt, ratios, config, TailCuboidQueue(8), RandomStream(5))
        assert result.injected_cells == []
        # replay the first four draw groups to reproduce the plain mix
        rng = RandomStream(5)
        a = partition_cuboids(src, config, rng, provenance=PROV_SOURCE)
        b = partition_cuboids(tgt, config, rng, provenance=PROV_TARGET)
        a = permute_cuboids(a, config.rho_s, rng)
        b = permute_cuboids(b, config.rho_s, rng)
        plain = mix_cuboids(a, b, config.rho_m, rng)
        assert np.array_equal(result.mixed.cloud.positions, plain.cloud.positions)
        assert np.array_equal(result.mixed.cloud.labels, plain.cloud.labels)

    def test_enough_tails_no_injection(self, taxonomy):
        # every cuboid is rich in class 2 -> already tail everywhere
        gen = RandomStream(3)
        pos = gen.uniform(0, 4, (300, 3))
        labels = np.where(gen.random(300) < 0.5, 2, 0)
        src = LabeledPointCloud(pos, labels, taxonomy)
        tgt = LabeledPointCloud(gen.uniform(0, 4, (300, 3)), np.where(gen.random(300) < 0.5, 2, 0), taxonomy)
        ratios = np.array([0.9, 0.05, 0.05])
        config = CuboidMixConfig(min_tail_cuboids=2)
        queue = TailCuboidQueue(8)
        queue.push(QueuedCuboid(np.zeros((3, 3)), np.full(3, 2, dtype=int), np.ones(3)))
        result = compose_mixed_scene(src, tgt, ratios, config, queue, RandomStream(4))
        assert result.injected_cells == []
        assert result.tail_flags.sum() >= 2

    def test_scripted_injection(self, taxonomy):
        # zero tail cells anywhere, two queued tail cuboids, u=2
        src = self.all_class0_cloud(taxonomy, 240, 6)
        tgt = self.all_class0_cloud(taxonomy, 240, 7)
        ratios = np.array([0.9, 0.05, 0.05])
        config = CuboidMixConfig(min_tail_cuboids=2)
        queue = TailCuboidQueue(8)
        for k in range(2):
            queue.push(
                QueuedCuboid(
                    RandomStream(k).random((10, 3)) * 0.5,
                    np.full(10, 2, dtype=int),
                    np.ones(3) * 0.5,
                )
            )
        result = compose_mixed_scene(src, tgt, ratios, config, queue, RandomStream(8))
        assert len(result.injected_cells) == 2
        assert result.tail_flags.sum() >= 2
        prov = [result.mixed.cuboids[i].provenance for i in result.injected_cells]
        assert all(p == PROV_QUEUE for p in prov)
        # injected points carry the queued labels
        injected_pts = sum(len(result.mixed.cuboids[i].members) for i in result.injected_cells)
        assert injected_pts == 20
        assert np.count_nonzero(result.mixed.cloud.labels == 2) == 20

    def test_thin_target_composes(self, taxonomy):
        # a target scan that kept one wall patch 0.04 m deep, thinner than
        # 2 * delta_phi, on the toy benchmark's 2x2x1 partition
        gen = RandomStream(14)
        src = self.all_class0_cloud(taxonomy, 300, 15)
        pos = np.column_stack([gen.uniform(0, 2, 109), gen.uniform(0, 0.04, 109), gen.uniform(0, 2, 109)])
        tgt = LabeledPointCloud(pos, np.full(109, 2, dtype=int), taxonomy)
        ratios = np.array([0.9, 0.05, 0.05])
        for seed in range(20):
            result = compose_mixed_scene(
                src, tgt, ratios, CuboidMixConfig(), TailCuboidQueue(8), RandomStream(seed)
            )
            mixed = result.mixed
            members = np.concatenate([c.members for c in mixed.cuboids])
            assert np.array_equal(np.sort(members), np.arange(mixed.cloud.n))
            assert np.isfinite(mixed.cloud.positions).all()

    def test_empty_queue_no_injection_possible(self, taxonomy):
        src = self.all_class0_cloud(taxonomy, 200, 9)
        tgt = self.all_class0_cloud(taxonomy, 200, 10)
        ratios = np.array([0.9, 0.05, 0.05])
        config = CuboidMixConfig(min_tail_cuboids=2)
        result = compose_mixed_scene(src, tgt, ratios, config, TailCuboidQueue(8), RandomStream(11))
        assert result.injected_cells == []
        assert result.tail_flags.sum() == 0

    def assert_rejected(self, source, target, ratios, error):
        # rejected before any draw and before the queue is touched
        queue, rng = TailCuboidQueue(8), RandomStream(3)
        queue.push(QueuedCuboid(np.zeros((3, 3)), np.full(3, 2, dtype=int), np.ones(3)))
        with pytest.raises(error):
            compose_mixed_scene(source, target, ratios, CuboidMixConfig(), queue, rng)
        assert len(queue) == 1 and rng.random() == RandomStream(3).random()

    def test_taxonomy_mismatch_rejected(self, taxonomy):
        other = ClassTaxonomy("other", taxonomy.names, taxonomy.ignore_index)
        src = self.all_class0_cloud(other, 200, 1)
        tgt = self.all_class0_cloud(taxonomy, 200, 2)
        self.assert_rejected(src, tgt, np.array([0.9, 0.05, 0.05]), ShapeMismatchError)

    @pytest.mark.parametrize("ratios", BAD_RATIOS)
    def test_bad_ratios_rejected(self, taxonomy, ratios):
        src = self.all_class0_cloud(taxonomy, 200, 1)
        tgt = self.all_class0_cloud(taxonomy, 200, 2)
        self.assert_rejected(src, tgt, ratios, DimensionError)

    def test_queue_updated_from_target_tails(self, taxonomy):
        gen = RandomStream(12)
        src = self.all_class0_cloud(taxonomy, 200, 13)
        pos = gen.uniform(0, 4, (200, 3))
        labels = np.where(gen.random(200) < 0.3, 2, 0)
        tgt = LabeledPointCloud(pos, labels, taxonomy)
        ratios = np.array([0.9, 0.05, 0.05])
        queue = TailCuboidQueue(16)
        result = compose_mixed_scene(src, tgt, ratios, CuboidMixConfig(), queue, RandomStream(14))
        assert len(result.queue) > 0


# --- the per-cuboid two-pass mixer the array compose replaced, kept as a reference ---

@dataclass
class ReferenceSet:
    """A partitioned scene as a list of ``Cuboid``s in cell order."""

    cloud: LabeledPointCloud
    xb: np.ndarray
    yb: np.ndarray
    zb: np.ndarray
    cuboids: list

    def grid_cell_bounds(self, cell):
        i, j, k = cell
        return np.array(
            [self.xb[i], self.yb[j], self.zb[k], self.xb[i + 1], self.yb[j + 1], self.zb[k + 1]]
        )


def flatnonzero_partition(cloud, config, rng, provenance):
    """Reference partition: one flatnonzero per cell."""
    pos = cloud.positions
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    xb = _axis_boundaries(lo[0], hi[0], config.nx, config.delta_phi, rng)
    yb = _axis_boundaries(lo[1], hi[1], config.ny, config.delta_phi, rng)
    zb = _axis_boundaries(lo[2], hi[2], config.nz, config.delta_phi, rng)
    ix = np.searchsorted(xb[1:-1], pos[:, 0], side="right")
    iy = np.searchsorted(yb[1:-1], pos[:, 1], side="right")
    iz = np.searchsorted(zb[1:-1], pos[:, 2], side="right")
    cuboids = []
    for i in range(config.nx):
        for j in range(config.ny):
            for k in range(config.nz):
                members = np.flatnonzero((ix == i) & (iy == j) & (iz == k))
                bounds = np.array([xb[i], yb[j], zb[k], xb[i + 1], yb[j + 1], zb[k + 1]])
                cuboids.append(Cuboid((i, j, k), bounds, members, provenance))
    return ReferenceSet(cloud, xb, yb, zb, cuboids)


def per_cuboid_permute(cset, rho_s, rng):
    """Reference permutation: one translation per cuboid."""
    ncells = len(cset.cuboids)
    if rng.random() >= rho_s:
        return cset
    perm = rng.permutation(ncells)
    cells = [c.cell for c in cset.cuboids]
    positions = cset.cloud.positions.copy()
    new_cuboids = [None] * ncells
    for pos_idx, cub in enumerate(cset.cuboids):
        dest = int(perm[pos_idx])
        dest_bounds = cset.grid_cell_bounds(cells[dest])
        shift = 0.5 * (dest_bounds[:3] + dest_bounds[3:]) - cub.center
        positions[cub.members] += shift
        moved = np.concatenate([cub.bounds[:3] + shift, cub.bounds[3:] + shift])
        new_cuboids[dest] = Cuboid(cells[dest], moved, cub.members, cub.provenance)
    return ReferenceSet(cset.cloud.with_positions(positions), cset.xb, cset.yb, cset.zb, new_cuboids)


def per_cuboid_classify(scene, ratios, n_tail):
    """Reference tail rule: one label count per cuboid and tail class."""
    tails = tail_classes_of(ratios, n_tail)
    labels = scene.cloud.labels
    ignore = scene.cloud.taxonomy.ignore_index
    flags = np.zeros(len(scene.cuboids), dtype=bool)
    for idx, cub in enumerate(scene.cuboids):
        sub = labels[cub.members]
        sub = sub[sub != ignore]
        if len(sub) == 0:
            continue
        for t in tails:
            if np.count_nonzero(sub == t) / len(sub) > ratios[t]:
                flags[idx] = True
                break
    return flags


def per_cuboid_queue_update(queue, cset, flags):
    """Reference queue update: one entry per flagged cuboid."""
    for cub, flagged in zip(cset.cuboids, flags):
        if flagged:
            queue.push(QueuedCuboid(
                cset.cloud.positions[cub.members] - cub.bounds[:3],
                cset.cloud.labels[cub.members].copy(),
                cub.size.copy(),
            ))


def _build(cells, parts, grid):
    """Concatenate (points, labels, bounds, provenance) chunks in cell order
    into a mixed scene over ``grid``'s boundaries."""
    cuboids, offset = [], 0
    for cell, (pts, _, bounds, prov) in zip(cells, parts):
        cuboids.append(Cuboid(cell, bounds, offset + np.arange(len(pts), dtype=np.int64), prov))
        offset += len(pts)
    cloud = LabeledPointCloud(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]),
        grid.cloud.taxonomy,
    )
    return ReferenceSet(cloud, grid.xb, grid.yb, grid.zb, cuboids)


def two_pass_mix(source, target, rho_m, rng):
    take_source = rng.random(len(target.cuboids)) < rho_m
    cells = [c.cell for c in target.cuboids]
    parts = []
    for c, cell in enumerate(cells):
        grid = target.grid_cell_bounds(cell)
        if take_source[c]:
            cub = source.cuboids[c]
            shift = 0.5 * (grid[:3] + grid[3:]) - cub.center
            parts.append((source.cloud.positions[cub.members] + shift, source.cloud.labels[cub.members],
                          np.concatenate([cub.bounds[:3] + shift, cub.bounds[3:] + shift]), PROV_SOURCE))
        else:
            cub = target.cuboids[c]
            parts.append((target.cloud.positions[cub.members], target.cloud.labels[cub.members],
                          cub.bounds.copy(), PROV_TARGET))
    return _build(cells, parts, target)


def two_pass_inject(mixed, flags, queue, need, rng):
    nontail = np.flatnonzero(~flags)
    k = min(need, len(nontail))
    if k <= 0 or len(queue) == 0:
        return mixed, flags, []
    chosen = nontail[rng.choice(len(nontail), size=k, replace=False)]
    picks = rng.choice(len(queue), size=k, replace=len(queue) < k)
    replace_with = {int(c): queue.get(int(q)) for c, q in zip(chosen, picks)}
    flags = flags.copy()
    parts = []
    for c, cub in enumerate(mixed.cuboids):
        if c in replace_with:
            entry = replace_with[c]
            origin = cub.center - 0.5 * entry.size
            parts.append((entry.positions + origin, entry.labels,
                          np.concatenate([origin, origin + entry.size]), PROV_QUEUE))
            flags[c] = True
        else:
            parts.append((mixed.cloud.positions[cub.members], mixed.cloud.labels[cub.members],
                          cub.bounds, cub.provenance))
    out = _build([c.cell for c in mixed.cuboids], parts, mixed)
    return out, flags, sorted(replace_with)


def two_pass_compose(source, target, ratios, config, queue, rng):
    """Mix, classify the mixed scene, then rebuild it if the queue injects."""
    src_set = flatnonzero_partition(source, config, rng, PROV_SOURCE)
    tgt_set = flatnonzero_partition(target, config, rng, PROV_TARGET)
    src_set = per_cuboid_permute(src_set, config.rho_s, rng)
    tgt_set = per_cuboid_permute(tgt_set, config.rho_s, rng)
    mixed = two_pass_mix(src_set, tgt_set, config.rho_m, rng)
    flags = per_cuboid_classify(mixed, ratios, config.n_tail_classes)
    injected = []
    need = config.min_tail_cuboids - int(flags.sum())
    if need > 0 and len(queue) > 0:
        mixed, flags, injected = two_pass_inject(mixed, flags, queue, need, rng)
    tgt_flags = per_cuboid_classify(tgt_set, ratios, config.n_tail_classes)
    per_cuboid_queue_update(queue, tgt_set, tgt_flags)
    return mixed, flags, injected


def mixing_cloud(taxonomy, gen, thin=False):
    """A room-sized cloud whose class mix varies by scene, with a few ignore
    labels; ``thin`` squeezes one horizontal axis to a wall patch."""
    n = int(gen.integers(40, 260))
    pos = gen.uniform(0.0, 3.0, (n, 3))
    if thin:
        pos[:, int(gen.integers(0, 2))] *= gen.choice([0.02, 1e-3, 1e-6])
    labels = gen.choice(taxonomy.count, size=n, p=gen.dirichlet(np.ones(taxonomy.count)))
    labels[gen.random(n) < 0.05] = taxonomy.ignore_index
    return LabeledPointCloud(pos, labels, taxonomy)


def assert_same_bytes(a, b):
    # np.array_equal takes -0.0 for +0.0; the bytes tell them apart
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_compose(got, want, ours, theirs, rng_ours, rng_theirs):
    """One compose against the reference: mixed cloud, cuboids, flags,
    injected cells, queue and the stream state after the call."""
    mixed, flags, injected = want
    assert got.queue is ours
    assert_same_bytes(got.mixed.cloud.positions, mixed.cloud.positions)
    assert_same_bytes(got.mixed.cloud.labels, mixed.cloud.labels)
    for axis in ("xb", "yb", "zb"):
        assert_same_bytes(getattr(got.mixed, axis), getattr(mixed, axis))
    got_cuboids = got.mixed.cuboids
    assert len(got_cuboids) == len(mixed.cuboids)
    for a, b in zip(got_cuboids, mixed.cuboids):
        assert a.cell == b.cell and a.provenance == b.provenance
        assert_same_bytes(a.bounds, b.bounds)
        assert_same_bytes(a.members, b.members)
    assert_same_bytes(got.tail_flags, flags)
    assert got.injected_cells == injected
    assert len(ours) == len(theirs)
    for a, b in zip(ours.entries(), theirs.entries()):
        assert_same_bytes(a.positions, b.positions)
        assert_same_bytes(a.labels, b.labels)
        assert_same_bytes(a.size, b.size)
    assert rng_ours.random() == rng_theirs.random()


@pytest.fixture(scope="module")
def toy_scenes(tmp_path_factory):
    """Toy benchmark scenes: clean sources and hidden-scan targets, with
    about a third of the target labels replaced by the ignore label as
    pseudo labels would be."""
    toy = make_toy_benchmark(tmp_path_factory.mktemp("toy"), seed=0, n_source=3, n_target=3)
    config = load_config(toy)
    sources = load_scenes(load_manifest(config.source_manifest), TOY_TAXONOMY)
    targets = load_scenes(load_manifest(config.target_manifest), TOY_TAXONOMY)
    gen = np.random.default_rng(7)
    targets = [
        t.with_labels(np.where(gen.random(t.n) < 0.35, TOY_TAXONOMY.ignore_index, t.labels))
        for t in targets
    ]
    return sources, targets


def signed_zero_target(target):
    """``target`` moved to the positive octant with every zero coordinate,
    and the x of one point in ten, set to -0.0."""
    pos = target.positions - target.positions.min(axis=0)
    pos[::10, 0] = 0.0
    pos[pos == 0.0] = -0.0
    return target.with_positions(pos)


class TestOnePassEquivalence:
    def test_matches_two_pass_mixer(self, taxonomy):
        gen = np.random.default_rng(2024)
        injected_cells = thin_targets = 0
        for _ in range(200):
            nx, ny, nz = int(gen.integers(1, 5)), int(gen.integers(1, 5)), int(gen.integers(1, 3))
            config = CuboidMixConfig(
                nx=nx, ny=ny, nz=nz, delta_phi=float(gen.uniform(0.0, 0.2)),
                rho_s=float(gen.random()), rho_m=float(gen.random()),
                queue_cap=int(gen.integers(0, 20)), n_tail_classes=int(gen.integers(0, 4)),
                min_tail_cuboids=int(gen.integers(0, nx * ny * nz + 1)),
            )
            ratios = gen.dirichlet(np.ones(taxonomy.count))
            ours, theirs = TailCuboidQueue(config.queue_cap), TailCuboidQueue(config.queue_cap)
            seed = int(gen.integers(0, 2**31))
            rng_ours, rng_theirs = RandomStream(seed), RandomStream(seed)
            for _ in range(4):
                thin = bool(gen.random() < 0.25)
                thin_targets += thin
                source, target = mixing_cloud(taxonomy, gen), mixing_cloud(taxonomy, gen, thin)
                got = compose_mixed_scene(source, target, ratios, config, ours, rng_ours)
                want = two_pass_compose(source, target, ratios, config, theirs, rng_theirs)
                assert_same_compose(got, want, ours, theirs, rng_ours, rng_theirs)
                injected_cells += len(want[2])
        # the fixed draws inject 225 cells and build 208 thin targets
        assert injected_cells >= 200 and thin_targets >= 150

    @pytest.mark.parametrize("config", [
        CuboidMixConfig(nx=4, ny=4, nz=2, queue_cap=16, n_tail_classes=2, min_tail_cuboids=8),
        CuboidMixConfig(),
    ], ids=["4x4x2", "2x2x1"])
    def test_matches_two_pass_mixer_on_toy_scenes(self, toy_scenes, config):
        sources, targets = toy_scenes
        targets = [*targets, signed_zero_target(targets[0])]
        # under the sources' ratios the tail classes (chair, lamp) are rare
        # in a cell, so the queue injects; under the targets' most cells are tail
        ratios = class_ratio(np.concatenate([s.labels for s in sources]), TOY_TAXONOMY)
        ours, theirs = TailCuboidQueue(config.queue_cap), TailCuboidQueue(config.queue_cap)
        rng_ours, rng_theirs = RandomStream(0), RandomStream(0)
        injected_cells = kept_negative_zeros = 0
        for step in range(24):
            source, target = sources[step % len(sources)], targets[step % len(targets)]
            got = compose_mixed_scene(source, target, ratios, config, ours, rng_ours)
            want = two_pass_compose(source, target, ratios, config, theirs, rng_theirs)
            assert_same_compose(got, want, ours, theirs, rng_ours, rng_theirs)
            injected_cells += len(want[2])
            pos = want[0].cloud.positions
            kept_negative_zeros += int(((pos == 0.0) & np.signbit(pos)).sum())
        # the queue fills and injects, and the planted -0.0 reach the output
        assert injected_cells > 0 and kept_negative_zeros > 0

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 1), (4, 4, 2), (3, 1, 2)])
    def test_partition_members_match_flatnonzero(self, taxonomy, shape):
        gen = np.random.default_rng(sum(shape))
        for seed in range(10):
            cloud = mixing_cloud(taxonomy, gen, thin=seed % 3 == 0)
            config = CuboidMixConfig(nx=shape[0], ny=shape[1], nz=shape[2], min_tail_cuboids=1)
            got = partition_cuboids(cloud, config, RandomStream(seed), PROV_TARGET)
            want = flatnonzero_partition(cloud, config, RandomStream(seed), PROV_TARGET)
            for a, b in zip(got.cuboids, want.cuboids, strict=True):
                assert a.cell == b.cell and a.provenance == b.provenance
                assert a.members.dtype == b.members.dtype
                assert np.array_equal(a.members, b.members)
                assert np.array_equal(a.bounds, b.bounds)
