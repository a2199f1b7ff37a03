"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from scanmix import (
    ClassTaxonomy,
    CuboidMixConfig,
    FileFormat,
    LabeledPointCloud,
    PseudoLabelConfig,
    RandomStream,
    ScanSimConfig,
    SegmenterModel,
    TOY_STRUCTURAL,
    TOY_TAXONOMY,
    TailCuboidQueue,
    TrainConfig,
    class_ratio,
    cross_entropy,
    forward_scores,
    generate_pseudo_labels,
    generate_scene,
    jitter_points,
    load_config,
    make_template,
    make_toy_benchmark,
    mix_cuboids,
    partition_cuboids,
    permute_cuboids,
    plan_scan,
    read_point_file,
    run_pipeline,
    sample_camera_poses,
    compose_mixed_scene,
    train_pretrain,
    update_tail_queue,
    visibility_oracle,
    visible_range_mask,
    visible_union_mask,
    write_point_file,
)
from scanmix.core import AugmentConfig
from scanmix.cuboidmix import PROV_SOURCE, PROV_TARGET, tail_classes_of
from scanmix.scansim import FovConfig
from scanmix.scenegen import SceneSpec
from scanmix.segmenter import FeatureConfig

ACCEPT = "ACCEPTANCE {:02d} PASS - {}"


def template_cloud(name, seed, density):
    rng = RandomStream(seed)
    return generate_scene(make_template(name, rng, density=density), TOY_TAXONOMY, rng)


@pytest.fixture(scope="session")
def toy_benchmark(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return make_toy_benchmark(root, seed=0)


class TestCriterion1Occlusion:
    def test_depth_buffer_agrees_with_oracle(self):
        config = ScanSimConfig(theta_bin=0.5, eps_d=0.05)
        for name, density in (("one_occluder", 200.0), ("cluttered", 170.0)):
            cloud = template_cloud(name, seed=21, density=density)
            assert cloud.n >= 20_000, f"{name} has only {cloud.n} points"
            plan = plan_scan(cloud, config, TOY_STRUCTURAL)
            poses = sample_camera_poses(cloud, plan, config, RandomStream(3))

            t0 = time.perf_counter()
            db_union = visible_union_mask(cloud, poses, config)
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"visible_points took {elapsed:.1f}s on {name}"

            oracle_union = np.zeros(cloud.n, dtype=bool)
            for pose in poses:
                oracle_union |= visibility_oracle(cloud, pose, config.fov, r_pt=0.02)
            agreement = (db_union == oracle_union).mean()
            assert agreement >= 0.95, f"{name}: agreement {agreement:.3f}"
            print(f"  [{name}] n={cloud.n} agreement={agreement:.3f} scan_time={elapsed:.2f}s")
        print(ACCEPT.format(1, "occlusion vs exact oracle >= 95%, scan < 10 s/scene"))


class TestCriterion2ScanInvariants:
    def test_invariants_on_50_scenes(self):
        template_cycle = ("empty_room", "one_occluder", "cluttered", "long_corridor", "two_room")
        for case in range(50):
            name = template_cycle[case % len(template_cycle)]
            cloud = template_cloud(name, seed=100 + case, density=25.0)
            config = ScanSimConfig(n_v=3)
            rng = RandomStream(500 + case)
            plan = plan_scan(cloud, config, TOY_STRUCTURAL)
            poses = sample_camera_poses(cloud, plan, config, rng)

            # subset property
            union = visible_union_mask(cloud, poses, config)
            out = cloud.select(union)
            assert out.n <= cloud.n
            assert np.array_equal(out.positions, cloud.positions[union])

            # camera-count monotonicity over a fixed pose prefix
            prev = np.zeros(cloud.n, dtype=bool)
            for k in range(1, len(poses) + 1):
                mask = visible_union_mask(cloud, poses[:k], config)
                assert not (prev & ~mask).any()
                prev = mask

            # FOV nesting
            pose = poses[0]
            wide = visible_range_mask(cloud, pose, config.fov)
            fov = config.fov
            narrow_fov = FovConfig(fov.alpha_h * 0.6, fov.alpha_v * 0.7, fov.mode, fov.d_ref)
            narrow = visible_range_mask(cloud, pose, narrow_fov)
            assert not (narrow & ~wide).any()

            # jitter displacement bound and zero-jitter identity
            jittered = jitter_points(out, 0.01, rng)
            assert np.abs(jittered.positions - out.positions).max() <= 0.01
            same = jitter_points(out, 0.0, rng)
            assert np.array_equal(same.positions, out.positions)
        print(ACCEPT.format(2, "scan-sim subset/monotony/nesting/jitter on 50 scenes"))


class TestCriterion3MixInvariants:
    SHAPES = [(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 1, 2), (2, 1, 1), (3, 2, 1), (2, 2, 2)]

    def test_partition_and_rigidity_100_cases(self, taxonomy):
        from conftest import random_cloud

        for case in range(100):
            shape = self.SHAPES[case % len(self.SHAPES)]
            cloud = random_cloud(taxonomy, n=250, seed=case, scale=5.0)
            config = CuboidMixConfig(
                nx=shape[0], ny=shape[1], nz=shape[2], delta_phi=0.1,
                min_tail_cuboids=min(2, shape[0] * shape[1] * shape[2]),
            )
            cset = partition_cuboids(cloud, config, RandomStream(case))
            seen = np.concatenate([c.members for c in cset.cuboids])
            assert len(seen) == cloud.n and len(np.unique(seen)) == cloud.n
            for b in (cset.xb, cset.yb, cset.zb):
                assert (np.diff(b) > 0).all()

            permuted = permute_cuboids(cset, 1.0, RandomStream(case + 1))
            for orig in cset.cuboids:
                if len(orig.members) < 2:
                    continue
                a = pdist(cset.cloud.positions[orig.members])
                match = [
                    c for c in permuted.cuboids
                    if np.array_equal(np.sort(c.members), np.sort(orig.members))
                ]
                b = pdist(permuted.cloud.positions[match[0].members])
                assert np.allclose(b, a, rtol=1e-9, atol=1e-12)

    def test_mix_extremes_exact(self, taxonomy):
        from conftest import random_cloud

        config = CuboidMixConfig(delta_phi=0.05)
        for seed in range(10):
            rng = RandomStream(seed)
            src = partition_cuboids(random_cloud(taxonomy, 200, seed, 4.0), config, rng, PROV_SOURCE)
            tgt = partition_cuboids(random_cloud(taxonomy, 220, seed + 50, 4.0), config, rng, PROV_TARGET)
            kept = mix_cuboids(src, tgt, 0.0, RandomStream(seed))
            assert all(c.provenance == PROV_TARGET for c in kept.cuboids)
            assert sorted(map(tuple, kept.cloud.positions)) == sorted(map(tuple, tgt.cloud.positions))
            swapped = mix_cuboids(src, tgt, 1.0, RandomStream(seed))
            assert all(c.provenance == PROV_SOURCE for c in swapped.cuboids)
            assert swapped.cloud.n == src.cloud.n

    def test_fifo_replay(self, taxonomy):
        from conftest import random_cloud

        capacity = 9
        queue = TailCuboidQueue(capacity)
        reference = []
        rng = RandomStream(13)
        for step in range(40):
            cloud = random_cloud(taxonomy, 60, step, 3.0)
            cset = partition_cuboids(cloud, CuboidMixConfig(), RandomStream(step))
            flags = rng.random(len(cset.cuboids)) < 0.35
            update_tail_queue(queue, cset, flags)
            for cub, f in zip(cset.cuboids, flags):
                if f:
                    reference.append(cloud.positions[cub.members] - cub.bounds[:3])
                    if len(reference) > capacity:
                        reference.pop(0)
        assert len(queue) == len(reference)
        for got, want in zip(queue.entries(), reference):
            assert np.array_equal(got.positions, want)
        print(ACCEPT.format(3, "partition/rigidity/extremes/FIFO invariants"))


class TestCriterion4StatisticalKnobs:
    def test_permutation_rate_and_replaced_cells(self, taxonomy):
        from conftest import random_cloud

        config = CuboidMixConfig(delta_phi=0.05)
        rng0 = RandomStream(0)
        src = partition_cuboids(random_cloud(taxonomy, 200, 1, 4.0), config, rng0, PROV_SOURCE)
        tgt = partition_cuboids(random_cloud(taxonomy, 200, 2, 4.0), config, rng0, PROV_TARGET)

        permuted = sum(
            permute_cuboids(tgt, 0.5, RandomStream(seed)) is not tgt for seed in range(1000)
        )
        rate = permuted / 1000
        assert abs(rate - 0.5) <= 0.05, f"permutation rate {rate}"

        replaced = [
            sum(c.provenance == PROV_SOURCE for c in mix_cuboids(src, tgt, 0.5, RandomStream(seed)).cuboids)
            for seed in range(1000)
        ]
        mean = np.mean(replaced)
        assert abs(mean - 2.0) <= 0.15, f"mean replaced cells {mean}"
        print(ACCEPT.format(4, f"perm rate {rate:.3f} in 0.5+-0.05; replaced {mean:.3f} in 2.0+-0.15"))


class TestCriterion5TailOversampling:
    def test_oversampling_raises_tail_fraction(self):
        targets = [template_cloud("tail_heavy", 300 + i, density=40.0) for i in range(8)]
        sources = [template_cloud("one_occluder", 400 + i, density=40.0) for i in range(8)]
        ratios = class_ratio(np.concatenate([t.labels for t in targets]), TOY_TAXONOMY)
        tails = tail_classes_of(ratios, 2)

        def mean_tail_fraction(u):
            config = CuboidMixConfig(min_tail_cuboids=u)
            queue = TailCuboidQueue(config.queue_cap)
            rng = RandomStream(77)
            fractions = []
            for i in range(220):
                result = compose_mixed_scene(
                    sources[i % len(sources)], targets[i % len(targets)],
                    ratios, config, queue, rng,
                )
                queue = result.queue
                labels = result.mixed.cloud.labels
                valid = labels[labels != TOY_TAXONOMY.ignore_index]
                fractions.append(np.isin(valid, tails).mean())
            return float(np.mean(fractions))

        with_queue = mean_tail_fraction(2)
        baseline = mean_tail_fraction(0)
        assert with_queue > baseline, f"{with_queue} vs {baseline}"
        print(ACCEPT.format(5, f"tail fraction {with_queue:.4f} (u=2) > {baseline:.4f} (u=0) over 220 scenes"))


class TestCriterion6PseudoLabels:
    def test_threshold_rules(self):
        for seed in range(5):
            raw = RandomStream(seed).random((600, 6))
            scores = raw / raw.sum(axis=1, keepdims=True)
            labels = generate_pseudo_labels(scores, PseudoLabelConfig(threshold=0.4), -1)
            # brute-force row scan
            for i, row in enumerate(scores):
                best = int(np.argmax(row))
                want = best if row[best] > 0.4 else -1
                assert labels[i] == want

        # per-class nearest-rank retention
        for seed in range(5):
            raw = RandomStream(100 + seed).random((997, 5))
            scores = raw / raw.sum(axis=1, keepdims=True)
            fraction = 0.3
            labels = generate_pseudo_labels(
                scores, PseudoLabelConfig(mode="per_class_fraction", fraction=fraction), -1
            )
            pred = scores.argmax(axis=1)
            for j in range(5):
                m = int((pred == j).sum())
                expect = int(np.floor(fraction * m + 1e-9))
                assert int((labels == j).sum()) == expect

        # monotonicity in the global threshold
        raw = RandomStream(9).random((500, 4))
        scores = raw / raw.sum(axis=1, keepdims=True)
        kept = [
            int((generate_pseudo_labels(scores, PseudoLabelConfig(threshold=t), -1) != -1).sum())
            for t in np.linspace(0, 1, 21)
        ]
        assert all(a >= b for a, b in zip(kept, kept[1:]))
        print(ACCEPT.format(6, "strict threshold, nearest-rank retention, monotonicity"))


class TestCriterion7Numerics:
    def test_gradient_softmax_descent(self):
        gen = RandomStream(11)
        checked = 0
        while checked < 100:
            n = int(gen.integers(2, 12))
            c = int(gen.integers(2, 7))
            logits = np.asarray(gen.normal(size=(n, c)) * 2)
            labels = gen.integers(0, c, size=n)

            def loss_of(lg):
                e = np.exp(lg - lg.max(axis=1, keepdims=True))
                return cross_entropy(e / e.sum(axis=1, keepdims=True), labels)[0]

            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            scores = e / e.sum(axis=1, keepdims=True)
            _, grad = cross_entropy(scores, labels)
            i = int(gen.integers(0, n))
            j = int(gen.integers(0, c))
            h = 1e-5
            bump = np.zeros_like(logits)
            bump[i, j] = h
            numeric = (loss_of(logits + bump) - loss_of(logits - bump)) / (2 * h)
            if abs(numeric) < 1e-8:
                continue
            rel = abs(grad[i, j] - numeric) / abs(numeric)
            assert rel <= 1e-4, f"relative error {rel}"
            checked += 1

        model = SegmenterModel(
            np.asarray(gen.normal(size=(6, 7))), np.asarray(gen.normal(size=6)), TOY_TAXONOMY
        )
        feats = np.asarray(gen.normal(size=(500, 7)) * 4)
        scores = forward_scores(model, feats)
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-6

        scene = generate_scene(
            SceneSpec(width=1.5, depth=1.5, height=1.0, density=40.0), TOY_TAXONOMY, RandomStream(0)
        )
        result = train_pretrain(
            SegmenterModel.zeros(TOY_TAXONOMY), [scene], None, TOY_STRUCTURAL,
            AugmentConfig.none(), FeatureConfig(voxel_size=0.02, radius=0.05),
            TrainConfig(learning_rate=0.1, iterations=200, batch_size=1), RandomStream(1),
        )
        smooth = np.convolve(result.losses, np.ones(5) / 5, mode="valid")
        assert (np.diff(smooth) <= 1e-9).all()
        assert result.losses[-1] < result.losses[0]
        print(ACCEPT.format(7, "CE gradient <=1e-4, softmax rows 1e-6, smoothed descent"))


class TestCriterion8ToyBenchmark:
    def test_directional_gaps_over_three_seeds(self, toy_benchmark):
        t0 = time.perf_counter()
        mious = []
        for seed in (0, 1, 2):
            config = load_config(toy_benchmark)
            config.seed = seed
            config.out_dir = toy_benchmark.parent / f"out_seed{seed}"
            mious.append(run_pipeline(config))
        elapsed = time.perf_counter() - t0

        src = np.mean([m["source_only"] for m in mious])
        scan = np.mean([m["scan_only"] for m in mious])
        full = np.mean([m["full"] for m in mious])
        gap_scan = 100 * (scan - src)
        gap_full = 100 * (full - scan)
        assert gap_scan >= 1.0, f"scan-sim gain {gap_scan:.2f} mIoU points"
        assert gap_full >= 1.0, f"self-train gain {gap_full:.2f} mIoU points"
        assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"
        print(
            ACCEPT.format(
                8,
                f"mIoU {100*src:.1f} < {100*scan:.1f} < {100*full:.1f} "
                f"(+{gap_scan:.1f}, +{gap_full:.1f}); {elapsed:.0f}s for 3 seeds",
            )
        )


def hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestCriterion9Determinism:
    def test_run_all_twice_byte_identical(self, toy_benchmark):
        base = load_config(toy_benchmark)
        base.pretrain = TrainConfig(
            learning_rate=0.05, iterations=8, batch_size=1, momentum=0.95, lr_decay_power=0.9
        )
        base.selftrain = TrainConfig(
            learning_rate=0.02, iterations=6, batch_size=1, momentum=0.95, lr_decay_power=0.9
        )
        hashes = []
        for run in range(2):
            config = load_config(toy_benchmark)
            config.pretrain, config.selftrain = base.pretrain, base.selftrain
            config.seed = 123
            config.out_dir = toy_benchmark.parent / f"det_{run}"
            run_pipeline(config)
            hashes.append(hash_tree(config.out_dir))
        assert hashes[0] == hashes[1]
        assert any(k.startswith("checkpoint") for k in hashes[0])
        assert "report.txt" in hashes[0]
        print(ACCEPT.format(9, f"run-all twice: {len(hashes[0])} files byte-identical"))


class TestCriterion10RoundTrip:
    def test_all_formats_10k(self, tmp_path):
        taxonomy = ClassTaxonomy("rt", tuple("abcdefg"), ignore_index=-1)
        gen = RandomStream(31)
        positions = gen.uniform(-8, 8, size=(10_000, 3)).astype(np.float32).astype(np.float64)
        labels = gen.integers(0, 7, size=10_000)
        labels[gen.random(10_000) < 0.07] = -1
        cloud = LabeledPointCloud(positions, labels, taxonomy)
        for fmt in FileFormat:
            path = tmp_path / f"c_{fmt.value}.dat"
            write_point_file(cloud, path, fmt)
            back = read_point_file(path, fmt, taxonomy)
            assert np.array_equal(back.labels, cloud.labels), fmt
            if fmt is FileFormat.PLY_BINARY_LE:
                assert np.array_equal(back.positions, cloud.positions), fmt
            else:
                assert np.abs(back.positions - cloud.positions).max() <= 1e-6, fmt
        print(ACCEPT.format(10, "10k-point round trip: binary exact, ascii <= 1e-6"))
