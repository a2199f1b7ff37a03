import numpy as np
import pytest
from scipy.spatial import cKDTree

from scanmix import (
    AugmentConfig,
    CuboidMixConfig,
    FeatureConfig,
    LabeledPointCloud,
    RandomStream,
    ScanSimConfig,
    SceneSpec,
    SegmenterModel,
    TOY_STRUCTURAL,
    TOY_TAXONOMY,
    TailCuboidQueue,
    TrainConfig,
    cross_entropy,
    extract_features,
    forward_scores,
    generate_scene,
    load_checkpoint,
    make_template,
    save_checkpoint,
    scan_and_jitter,
    train_pretrain,
    train_selftrain,
)
from scanmix.cuboidmix import compose_mixed_scene
from scanmix.errors import DimensionError, NoSupervisionError, ParseError
from scanmix.pseudo import class_ratio
from scanmix.segmenter import _scene_gradient

from conftest import random_cloud


def brute_force_features(cloud, config):
    pos = cloud.positions
    n = len(pos)
    z = pos[:, 2]
    z_min, z_max = z.min(), z.max()
    extent = z_max - z_min
    x_min, x_max = pos[:, 0].min(), pos[:, 0].max()
    y_min, y_max = pos[:, 1].min(), pos[:, 1].max()
    out = np.zeros((n, 7))
    for i in range(n):
        nb = [j for j in range(n) if np.linalg.norm(pos[j] - pos[i]) <= config.radius]
        zs = z[nb]
        out[i, 0] = z[i] - z_min
        out[i, 1] = (z[i] - z_min) / extent if extent > 0 else 0.0
        out[i, 2] = len(nb)
        out[i, 3] = zs.max() - zs.min()
        out[i, 4] = min(pos[i, 0] - x_min, x_max - pos[i, 0], pos[i, 1] - y_min, y_max - pos[i, 1])
        out[i, 5] = sum(abs(zz - z[i]) <= config.voxel_size for zz in zs) / len(nb)
        out[i, 6] = 1.0
    return out


def scatter_features(cloud, config):
    """Reference: extract_features as it was with a balanced cKDTree and
    ufunc.at scatters for every neighbour statistic. The current version
    must match it bit for bit."""
    pos = cloud.positions
    n = cloud.n
    z = pos[:, 2]
    z_min, z_max = z.min(), z.max()
    height = z - z_min
    extent = z_max - z_min
    norm_height = height / extent if extent > 0 else np.zeros(n)
    pairs = cKDTree(pos).query_pairs(config.radius, output_type="ndarray")
    count = np.ones(n)
    z_lo = z.copy()
    z_hi = z.copy()
    planar_num = np.ones(n)
    if len(pairs):
        a, b = pairs[:, 0], pairs[:, 1]
        np.add.at(count, a, 1.0)
        np.add.at(count, b, 1.0)
        np.minimum.at(z_lo, a, z[b])
        np.minimum.at(z_lo, b, z[a])
        np.maximum.at(z_hi, a, z[b])
        np.maximum.at(z_hi, b, z[a])
        near = np.abs(z[a] - z[b]) <= config.voxel_size
        np.add.at(planar_num, a[near], 1.0)
        np.add.at(planar_num, b[near], 1.0)
    x_min, y_min = pos[:, 0].min(), pos[:, 1].min()
    x_max, y_max = pos[:, 0].max(), pos[:, 1].max()
    boundary = np.minimum.reduce(
        [pos[:, 0] - x_min, x_max - pos[:, 0], pos[:, 1] - y_min, y_max - pos[:, 1]]
    )
    return np.column_stack(
        [height, norm_height, count, z_hi - z_lo, boundary, planar_num / count, np.ones(n)]
    )


def masked_cross_entropy(scores, labels, ignore_index=-1):
    """Reference: cross_entropy as it was, writing the gradient through
    fancy indexing over the non-ignored rows only."""
    valid = np.flatnonzero(labels != ignore_index)
    if len(valid) == 0:
        raise NoSupervisionError("every point is ignored")
    picked = scores[valid, labels[valid]]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad = np.zeros_like(scores)
    grad[valid] = scores[valid]
    grad[valid, labels[valid]] -= 1.0
    grad[valid] /= len(valid)
    return loss, grad


class TestFeatures:
    def test_single_point_conventions(self, taxonomy):
        cloud = LabeledPointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([0]), taxonomy)
        f = extract_features(cloud, FeatureConfig())
        assert f[0, 0] == 0.0      # height above own minimum
        assert f[0, 1] == 0.0      # zero extent convention
        assert f[0, 2] == 1.0      # density counts only itself
        assert f[0, 3] == 0.0
        assert f[0, 5] == 1.0
        assert f[0, 6] == 1.0

    def test_flat_floor_planarity(self, taxonomy):
        gen = RandomStream(1)
        pos = np.column_stack([gen.random(400) * 2, gen.random(400) * 2, np.zeros(400)])
        cloud = LabeledPointCloud(pos, np.zeros(400, dtype=int), taxonomy)
        f = extract_features(cloud, FeatureConfig())
        assert np.allclose(f[:, 5], 1.0)

    def test_matches_pairwise_oracle(self, taxonomy):
        cloud = random_cloud(taxonomy, n=120, seed=3, scale=1.0)
        config = FeatureConfig(voxel_size=0.05, radius=0.25)
        got = extract_features(cloud, config)
        want = brute_force_features(cloud, config)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("n, scale", [(4_500, 3.0), (12_000, 4.0)])
    def test_bit_exact_on_random_clouds(self, taxonomy, n, scale):
        cloud = random_cloud(taxonomy, n=n, seed=n, scale=scale)
        config = FeatureConfig()
        assert np.array_equal(extract_features(cloud, config), scatter_features(cloud, config))

    def test_bit_exact_on_scanned_scene_with_duplicates(self):
        clean = make_selftrain_inputs(seed=21)[1][0]
        scene = scan_and_jitter(clean, ScanSimConfig(), TOY_STRUCTURAL, RandomStream(22))
        cloud = LabeledPointCloud(
            np.concatenate([scene.positions, scene.positions[::4]]),
            np.concatenate([scene.labels, scene.labels[::4]]),
            scene.taxonomy,
        )
        config = FeatureConfig()
        assert np.array_equal(extract_features(cloud, config), scatter_features(cloud, config))

    def test_bit_exact_without_pairs(self, taxonomy):
        config = FeatureConfig()
        single = LabeledPointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([0]), taxonomy)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        sparse = LabeledPointCloud(grid, np.zeros(len(grid), dtype=int), taxonomy)
        for cloud in (single, sparse):
            got = extract_features(cloud, config)
            assert np.array_equal(got, scatter_features(cloud, config))
            assert (got[:, 2] == 1.0).all()


class TestForward:
    def test_zero_model_uniform(self, taxonomy):
        model = SegmenterModel.zeros(taxonomy)
        scores = forward_scores(model, np.ones((5, 7)))
        assert np.allclose(scores, 1 / 3)

    def test_bias_dominance(self, taxonomy):
        model = SegmenterModel(np.zeros((3, 7)), np.array([10.0, 0.0, 0.0]), taxonomy)
        scores = forward_scores(model, np.zeros((1, 7)))
        assert scores[0].argmax() == 0
        assert scores[0, 0] > 0.9999

    def test_dimension_mismatch(self, taxonomy):
        model = SegmenterModel.zeros(taxonomy)
        with pytest.raises(DimensionError):
            forward_scores(model, np.ones((2, 5)))

    def test_rows_sum_to_one_and_match_longdouble(self, taxonomy):
        gen = RandomStream(4)
        model = SegmenterModel(gen.normal(size=(3, 7)), gen.normal(size=3), taxonomy)
        feats = gen.normal(size=(200, 7)) * 3
        scores = forward_scores(model, feats)
        assert np.abs(scores.sum(axis=1) - 1).max() < 1e-6
        logits = feats.astype(np.longdouble) @ model.weights.T.astype(np.longdouble)
        logits += model.bias.astype(np.longdouble)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = (e / e.sum(axis=1, keepdims=True)).astype(np.float64)
        assert np.allclose(scores, want, rtol=1e-12, atol=1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        scores = np.array([[1.0, 0.0, 0.0]])
        loss, grad = cross_entropy(scores, np.array([0]))
        assert loss == 0.0

    def test_uniform_prediction_log_c(self):
        c = 5
        scores = np.full((4, c), 1 / c)
        loss, _ = cross_entropy(scores, np.zeros(4, dtype=int))
        assert np.isclose(loss, np.log(c))

    def test_ignored_rows_have_zero_gradient(self):
        scores = np.array([[0.6, 0.4], [0.5, 0.5]])
        loss, grad = cross_entropy(scores, np.array([0, -1]))
        assert np.isclose(loss, -np.log(0.6))
        assert (grad[1] == 0).all()

    def test_all_ignored_raises(self):
        with pytest.raises(NoSupervisionError):
            cross_entropy(np.full((3, 2), 0.5), np.full(3, -1))

    @pytest.mark.parametrize("ignored_share", [0.0, 0.3, 0.95])
    def test_bit_exact_with_masked_reference(self, taxonomy, ignored_share):
        gen = RandomStream(17)
        model = SegmenterModel(gen.normal(size=(3, 7)), gen.normal(size=3), taxonomy)
        scores = forward_scores(model, gen.normal(size=(5_000, 7)))
        labels = gen.integers(0, 3, size=5_000)
        labels[gen.random(5_000) < ignored_share] = -1
        loss, grad = cross_entropy(scores, labels)
        want_loss, want_grad = masked_cross_entropy(scores, labels)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)

    def test_gradient_matches_finite_differences(self):
        gen = RandomStream(5)
        for trial in range(20):
            n, c = 6, 4
            logits = np.asarray(gen.normal(size=(n, c)) * 2)
            labels = gen.integers(0, c, size=n)
            labels[gen.random(n) < 0.2] = -1
            if (labels == -1).all():
                labels[0] = 0

            def loss_of(lg):
                e = np.exp(lg - lg.max(axis=1, keepdims=True))
                s = e / e.sum(axis=1, keepdims=True)
                return cross_entropy(s, labels)[0]

            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            scores = e / e.sum(axis=1, keepdims=True)
            _, grad = cross_entropy(scores, labels)
            h = 1e-5
            for _ in range(6):
                i = int(gen.integers(0, n))
                j = int(gen.integers(0, c))
                bump = np.zeros_like(logits)
                bump[i, j] = h
                numeric = (loss_of(logits + bump) - loss_of(logits - bump)) / (2 * h)
                if abs(numeric) > 1e-8:
                    assert abs(grad[i, j] - numeric) / max(abs(numeric), 1e-12) < 1e-4
                else:
                    assert abs(grad[i, j] - numeric) < 1e-8

    def test_gibbs_inequality(self):
        gen = RandomStream(6)
        for _ in range(20):
            n, c = 10, 4
            raw = gen.random((n, c))
            scores = raw / raw.sum(axis=1, keepdims=True)
            labels = gen.integers(0, c, size=n)
            onehot = np.zeros((n, c))
            onehot[np.arange(n), labels] = 1.0
            assert cross_entropy(onehot, labels)[0] <= cross_entropy(scores, labels)[0]


def small_convex_scene():
    # tiny room with sparse sampling keeps feature magnitudes small enough
    # for descent at learning rate 0.1
    spec = SceneSpec(width=1.5, depth=1.5, height=1.0, density=40.0)
    return generate_scene(spec, TOY_TAXONOMY, RandomStream(0))


class TestPretrain:
    def test_zero_iterations_unchanged(self, ):
        model = SegmenterModel.zeros(TOY_TAXONOMY)
        scenes = [small_convex_scene()]
        result = train_pretrain(
            model, scenes, None, TOY_STRUCTURAL, AugmentConfig.none(),
            FeatureConfig(), TrainConfig(iterations=0), RandomStream(1),
        )
        assert result.model is model
        assert len(result.losses) == 0

    def test_fixed_batch_descent(self):
        scenes = [small_convex_scene()]
        config = TrainConfig(learning_rate=0.1, iterations=200, batch_size=1)
        result = train_pretrain(
            SegmenterModel.zeros(TOY_TAXONOMY), scenes, None, TOY_STRUCTURAL,
            AugmentConfig.none(), FeatureConfig(voxel_size=0.02, radius=0.05),
            config, RandomStream(2),
        )
        losses = result.losses
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert (np.diff(smooth) <= 1e-9).all()
        assert losses[-1] < losses[0]

    def test_deterministic_weights(self):
        rng_scene = RandomStream(7)
        spec = make_template("one_occluder", rng_scene, density=30.0)
        scenes = [generate_scene(spec, TOY_TAXONOMY, rng_scene)]
        config = TrainConfig(learning_rate=0.02, iterations=12, batch_size=1)
        runs = []
        for _ in range(2):
            result = train_pretrain(
                SegmenterModel.zeros(TOY_TAXONOMY), scenes, ScanSimConfig(),
                TOY_STRUCTURAL, AugmentConfig(), FeatureConfig(radius=0.3),
                config, RandomStream(3),
            )
            runs.append(result.model)
        assert np.array_equal(runs[0].weights, runs[1].weights)
        assert np.array_equal(runs[0].bias, runs[1].bias)


def make_selftrain_inputs(seed=0):
    rng = RandomStream(seed)
    source = [generate_scene(make_template("one_occluder", rng, density=30.0), TOY_TAXONOMY, rng)]
    target = [generate_scene(make_template("cluttered", rng, density=30.0), TOY_TAXONOMY, rng)]
    return source, target


class TestSelftrain:
    def replicate_one_iteration(self, model, source, target, lam, seed):
        """Independent two-term reference computation of one update."""
        scan, mix_cfg, feat = ScanSimConfig(), CuboidMixConfig(), FeatureConfig(radius=0.3)
        rng = RandomStream(seed)
        ratios = class_ratio(np.concatenate([s.labels for s in target]), TOY_TAXONOMY)
        queue = TailCuboidQueue(mix_cfg.queue_cap)
        tgt = target[int(rng.integers(0, len(target)))]
        src = source[int(rng.integers(0, len(source)))]
        src = scan_and_jitter(src, scan, TOY_STRUCTURAL, rng)
        result = compose_mixed_scene(src, tgt, ratios, mix_cfg, queue, rng)
        mixed = result.mixed.cloud
        loss_m, gw_m, gb_m = _scene_gradient(model, mixed, extract_features(mixed, feat))
        loss_s, gw_s, gb_s = _scene_gradient(model, src, extract_features(src, feat))
        lr = 0.05
        weights = model.weights - lr * (gw_m + lam * gw_s)
        bias = model.bias - lr * (gb_m + lam * gb_s)
        return loss_m + lam * loss_s, weights, bias, loss_m, loss_s

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_loss_and_update_match_reference(self, lam):
        source, target = make_selftrain_inputs(seed=11)
        model = SegmenterModel.zeros(TOY_TAXONOMY)
        config = TrainConfig(learning_rate=0.05, iterations=1, batch_size=1, source_loss_weight=lam)
        result = train_selftrain(
            model, source, target, ScanSimConfig(), TOY_STRUCTURAL, CuboidMixConfig(),
            FeatureConfig(radius=0.3), config, RandomStream(9),
        )
        want_loss, want_w, want_b, loss_m, loss_s = self.replicate_one_iteration(
            model, source, target, lam, seed=9
        )
        assert result.losses[0] == want_loss
        assert np.array_equal(result.model.weights, want_w)
        assert np.array_equal(result.model.bias, want_b)
        if lam == 0.5:
            assert result.losses[0] == loss_m + 0.5 * loss_s

    def test_runs_multiple_iterations(self):
        source, target = make_selftrain_inputs(seed=12)
        config = TrainConfig(learning_rate=0.01, iterations=5, batch_size=1)
        result = train_selftrain(
            SegmenterModel.zeros(TOY_TAXONOMY), source, target, ScanSimConfig(),
            TOY_STRUCTURAL, CuboidMixConfig(), FeatureConfig(radius=0.3),
            config, RandomStream(10),
        )
        assert len(result.losses) == 5
        assert np.isfinite(result.losses).all()

    def test_pseudo_regeneration_option(self):
        from scanmix import PseudoLabelConfig

        source, target = make_selftrain_inputs(seed=13)
        config = TrainConfig(learning_rate=0.01, iterations=6, batch_size=1, regen_every=2)
        runs = []
        for _ in range(2):
            result = train_selftrain(
                SegmenterModel.zeros(TOY_TAXONOMY), source, target, ScanSimConfig(),
                TOY_STRUCTURAL, CuboidMixConfig(), FeatureConfig(radius=0.3),
                config, RandomStream(14), pseudo_config=PseudoLabelConfig(threshold=0.5),
            )
            runs.append(result)
        assert np.isfinite(runs[0].losses).all()
        assert np.array_equal(runs[0].model.weights, runs[1].model.weights)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        gen = RandomStream(13)
        model = SegmenterModel(gen.normal(size=(6, 7)), gen.normal(size=6), TOY_TAXONOMY)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        back = load_checkpoint(path, TOY_TAXONOMY)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)

    def test_header_is_text(self, tmp_path):
        model = SegmenterModel.zeros(TOY_TAXONOMY)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        first = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert first == "d=7 c=6 taxonomy=toy6"

    @pytest.mark.parametrize(
        "header, d, c",
        [
            (b"d=7 c=6 taxonomy=toy6 extra", 7, 6),       # token without '='
            (b"d=abc c=6 taxonomy=toy6", 7, 6),
            ("d=7 c=6 taxonomy=t\u00f6y6".encode("utf-8"), 7, 6),  # not ascii
            (b"d=3 c=6 taxonomy=toy6", 3, 6),             # payload sized for d=3
            (b"d=-7 c=6 taxonomy=toy6", 7, 6),
            (b"d=7 c=-6 taxonomy=toy6", 7, 6),
            (b"c=6 taxonomy=toy6", 7, 6),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, d, c):
        path = tmp_path / "model.bin"
        path.write_bytes(header + b"\n" + bytes((c * d + c) * 8))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path, TOY_TAXONOMY)
        assert err.value.path == str(path)

    def test_wrong_taxonomy_rejected(self, tmp_path, taxonomy):
        model = SegmenterModel.zeros(TOY_TAXONOMY)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(ParseError):
            load_checkpoint(path, taxonomy)
