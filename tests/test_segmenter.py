import ast
import multiprocessing
import multiprocessing.connection
import os
import signal
import struct
import threading
import time
from functools import cache
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import scanmix.core as core
import scanmix.scansim as scansim
import scanmix.segmenter as seg

from scanmix import (
    AugmentConfig,
    ClassTaxonomy,
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
    TrainResult,
    cross_entropy,
    extract_features,
    forward_scores,
    generate_scene,
    load_checkpoint,
    make_template,
    save_checkpoint,
    scan_and_jitter,
    standard_augment,
    train_pretrain,
    train_selftrain,
)
from scanmix.cuboidmix import compose_mixed_scene
from scanmix.errors import (
    DimensionError,
    DivergenceError,
    NoSupervisionError,
    ParseError,
    TrainerError,
    UnknownLabelError,
)
from scanmix.pseudo import PseudoLabelConfig, class_ratio
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

    def test_matches_numpy_row_max_byte_for_byte(self):
        gen = RandomStream(17)
        c = TOY_TAXONOMY.count
        for _ in range(20):
            weights = gen.normal(size=(c, 7))
            weights[gen.random(c) < 0.4] = 0.0               # classes tied on their bias
            bias = gen.choice(3, size=c).astype(np.float64)
            features = gen.normal(size=(300, 7)) * 3
            features[gen.random(300) < 0.2] = 0.0
            model = SegmenterModel(weights, bias, TOY_TAXONOMY)
            logits = features @ weights.T + bias
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            want = e / e.sum(axis=1, keepdims=True)
            assert forward_scores(model, features).tobytes() == want.tobytes()

    def test_sign_of_a_zero_row_max_does_not_reach_the_scores(self):
        # rows whose maximum is a tie of +0.0 and -0.0
        gen = RandomStream(18)
        logits = signed_zero_gradient(gen, (2000, 6))
        logits = np.where(logits > 0, -logits, logits)
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        got = np.exp(logits - core._narrow_reduce(np.maximum, logits, axis=1)[:, None])
        assert got.tobytes() == want.tobytes()


def payload_halves(vector):
    """The (c, 7) weights part and the (c,) bias part of a vector in the
    checkpoint payload's layout: the weights row-major, then the bias."""
    c = len(vector) // 8
    return vector[: 7 * c].reshape(c, 7), vector[7 * c :]


class TestModel:
    @pytest.mark.parametrize(
        "weights, bias",
        [
            (np.zeros(6), np.zeros(6)),            # weights not a matrix
            (np.zeros((6, 5)), np.zeros(6)),       # not the feature width, so its
                                                   # checkpoint would not load
            (np.zeros((6, 8)), np.zeros(6)),
            (np.zeros((5, 7)), np.zeros(6)),       # not the class count
            (np.zeros((6, 7)), np.zeros((6, 1))),
            (np.zeros((6, 7)), np.zeros(5)),
        ],
    )
    def test_bad_shape_is_a_dimension_error(self, weights, bias):
        with pytest.raises(DimensionError):
            SegmenterModel(weights, bias, TOY_TAXONOMY)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_non_finite_parameter_is_a_dimension_error(self, value, part):
        weights, bias = np.zeros((6, 7)), np.zeros(6)
        {"weights": weights, "bias": bias}[part].reshape(-1)[3] = value
        with pytest.raises(DimensionError, match="finite"):
            SegmenterModel(weights, bias, TOY_TAXONOMY)

    def test_keeps_no_reference_to_the_callers_arrays(self):
        weights, bias = np.zeros((6, 7)), np.zeros(6)
        model = SegmenterModel(weights, bias, TOY_TAXONOMY)
        weights[0, 0] = np.nan
        bias[1] = np.inf
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
        assert not np.shares_memory(model.params, weights)
        assert not np.shares_memory(model.params, bias)
        copy = model.copy()
        copy.params += 1.0
        assert not model.params.any()

    def test_weights_and_bias_are_views_of_params_in_payload_order(self):
        gen = RandomStream(8)
        weights, bias = gen.normal(size=(6, 7)), gen.normal(size=6)
        model = SegmenterModel(weights, bias, TOY_TAXONOMY)
        assert model.params.dtype == np.float64 and model.params.shape == (48,)
        assert model.params.tobytes() == weights.tobytes() + bias.tobytes()
        for view, want in zip(payload_halves(model.params), (model.weights, model.bias)):
            assert want.ctypes.data == view.ctypes.data and want.shape == view.shape
        # a step of params shows through both views, which cannot be written
        model.params -= 1.0
        assert np.array_equal(model.weights, weights - 1.0)
        assert np.array_equal(model.bias, bias - 1.0)
        for view in (model.weights, model.bias):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0


def row_sum_scores(model, features):
    """Reference: forward_scores as it was, normalising by numpy's row sum."""
    logits = features @ model.weights.T + model.bias
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


class TestColumnRowSum:
    # numpy adds a row of fewer than eight in order and a longer one
    # pairwise, so 9 takes the other branch
    @pytest.mark.parametrize("c", [1, 2, 6, 9])
    def test_matches_numpy_row_sum_byte_for_byte(self, c):
        gen = RandomStream(40 + c)
        taxonomy = ClassTaxonomy(f"c{c}", tuple(f"k{j}" for j in range(c)))
        for n in (1, 3, 301, 4_295):
            model = SegmenterModel(gen.normal(size=(c, 7)) * 2, gen.normal(size=c), taxonomy)
            features = gen.normal(size=(n, 7)) * 3
            got = forward_scores(model, features)
            assert got.tobytes() == row_sum_scores(model, features).tobytes()


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

    @pytest.mark.parametrize("ignored", ["none", "some", "all but one"])
    def test_bit_exact_with_where_reference(self, ignored):
        # the reference is cross_entropy as it was: np.where over every row
        # and the one subtracted through a (row, label) fancy index
        gen = RandomStream(19)
        scores = forward_scores(
            SegmenterModel(gen.normal(size=(6, 7)), gen.normal(size=6), TOY_TAXONOMY),
            gen.normal(size=(4_295, 7)),
        )
        labels = gen.integers(0, 6, size=4_295)
        if ignored == "some":
            labels[gen.random(4_295) < 0.4] = -1
        elif ignored == "all but one":
            labels[1:] = -1
        keep = labels != -1
        valid = np.flatnonzero(keep)
        want = np.where(keep[:, None], scores, 0.0)
        want[valid, labels[valid]] -= 1.0
        want /= len(valid)
        want_loss = float(-np.log(np.maximum(scores[valid, labels[valid]], 1e-12)).mean())
        loss, grad = cross_entropy(scores, labels)
        assert loss == want_loss
        assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("label", [-2, 3, 7])
    def test_label_outside_the_scores_rejected(self, label):
        scores = np.full((4, 3), 1 / 3)
        with pytest.raises(UnknownLabelError, match=f"unknown label {label}"):
            cross_entropy(scores, np.array([0, -1, label, 1]))

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
        loss_m, grad_m = _scene_gradient(model, mixed, extract_features(mixed, feat))
        loss_s, grad_s = _scene_gradient(model, src, extract_features(src, feat))
        gw_m, gb_m = payload_halves(grad_m)
        gw_s, gb_s = payload_halves(grad_s)
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
            FeatureConfig(radius=0.3), config, RandomStream(9), PseudoLabelConfig(),
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
            config, RandomStream(10), PseudoLabelConfig(),
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


# --- the run-ahead training loops against the plain loops -----------------
#
# The references are the loops as they were before the features left the
# drawing loop: one iteration at a time in one process, features computed
# where used, each from its own neighbour search. They reach the layer
# functions through their modules, so the fault injection below patches
# both implementations alike. The trainer process inherits the patches and
# counts its own calls, so a layer is faulted only where all its calls run
# in one process: with a refresh, its feature calls run in the drawing
# process and the training ones in the trainer.


def sequential_pretrain(model, scenes, scan_config, structural, augment_config,
                        feature_config, train_config, rng):
    if train_config.iterations == 0:
        return TrainResult(model, np.zeros(0))
    opt = seg._Descent(model, train_config)
    losses = np.zeros(train_config.iterations)
    plan_of = cache(lambda i: scansim.plan_scan(scenes[i], scan_config, structural))
    for it in range(train_config.iterations):
        picks = rng.integers(0, len(scenes), size=train_config.batch_size)
        grad = np.zeros_like(opt.model.params)
        total = 0.0
        for si in picks:
            scene = scenes[int(si)]
            if scan_config is not None:
                scene = scansim.scan_and_jitter(scene, scan_config, structural, rng, plan_of(int(si)))
            scene = core.standard_augment(scene, augment_config, rng)
            feats = seg.extract_features(scene, feature_config)
            loss, g = seg._scene_gradient(opt.model, scene, feats)
            grad += g
            total += loss
        total /= train_config.batch_size
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        losses[it] = total
        opt.step(grad / train_config.batch_size)
    return TrainResult(opt.model, losses)


def sequential_selftrain(model, source_scenes, target_scenes, scan_config, structural,
                         mix_config, feature_config, train_config, rng,
                         on_mixed=None, pseudo_config=None):
    if train_config.iterations == 0:
        return TrainResult(model, np.zeros(0))
    taxonomy = target_scenes[0].taxonomy
    target_scenes = list(target_scenes)
    ratios = class_ratio(np.concatenate([s.labels for s in target_scenes]), taxonomy)
    queue = TailCuboidQueue(mix_config.queue_cap)
    lam = train_config.source_loss_weight
    opt = seg._Descent(model, train_config)
    losses = np.zeros(train_config.iterations)
    plan_of = cache(lambda i: scansim.plan_scan(source_scenes[i], scan_config, structural))
    for it in range(train_config.iterations):
        if (
            train_config.regen_every > 0
            and pseudo_config is not None
            and it > 0
            and it % train_config.regen_every == 0
        ):
            target_scenes = [
                t.with_labels(
                    seg.generate_pseudo_labels(
                        seg.forward_scores(opt.model, seg.extract_features(t, feature_config)),
                        pseudo_config,
                        taxonomy.ignore_index,
                    )
                )
                for t in target_scenes
            ]
            ratios = class_ratio(np.concatenate([s.labels for s in target_scenes]), taxonomy)
        tgt = target_scenes[int(rng.integers(0, len(target_scenes)))]
        si = int(rng.integers(0, len(source_scenes)))
        src = scansim.scan_and_jitter(source_scenes[si], scan_config, structural, rng, plan_of(si))
        result = seg.compose_mixed_scene(src, tgt, ratios, mix_config, queue, rng)
        mixed_cloud = result.mixed.cloud
        if on_mixed is not None:
            on_mixed(it, mixed_cloud)
        feats_m = seg.extract_features(mixed_cloud, feature_config)
        loss_m, grad_m = seg._scene_gradient(opt.model, mixed_cloud, feats_m)
        feats_s = seg.extract_features(src, feature_config)
        loss_s, grad_s = seg._scene_gradient(opt.model, src, feats_s)
        total = loss_m + lam * loss_s
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        losses[it] = total
        opt.step(grad_m + lam * grad_s)
    return TrainResult(opt.model, losses)


def trainers():
    return multiprocessing.active_children()


def pretrain_scenes():
    rng = RandomStream(31)
    names = ("one_occluder", "cluttered", "tail_heavy")
    return [generate_scene(make_template(n, rng, density=25.0), TOY_TAXONOMY, rng) for n in names]


def selftrain_scenes():
    rng = RandomStream(32)
    source = [generate_scene(make_template(n, rng, density=25.0), TOY_TAXONOMY, rng)
              for n in ("one_occluder", "cluttered")]
    target = [generate_scene(make_template(n, rng, density=25.0), TOY_TAXONOMY, rng)
              for n in ("tail_heavy", "cluttered")]
    return source, target


FEATURES = FeatureConfig(radius=0.3)


# elastic distortion bypasses the neighbour reuse; without it every
# pretrain draw reuses its scene's candidate pairs
AUGMENTS = {"elastic": AugmentConfig(), "rigid": AugmentConfig(elastic=False)}


def run_pretrain(impl, scenes, scan, batch_size, iterations=6, seed=5, augment="elastic"):
    config = TrainConfig(learning_rate=0.02, iterations=iterations, batch_size=batch_size)
    return impl(SegmenterModel.zeros(TOY_TAXONOMY), scenes, scan, TOY_STRUCTURAL,
                AUGMENTS[augment], FEATURES, config, RandomStream(seed))


def run_selftrain(impl, source, target, regen_every, iterations=6, seed=6, on_mixed=None):
    config = TrainConfig(learning_rate=0.01, iterations=iterations, regen_every=regen_every)
    model = SegmenterModel(np.full((6, 7), 0.01), np.zeros(6), TOY_TAXONOMY)
    return impl(model, source, target, ScanSimConfig(), TOY_STRUCTURAL, CuboidMixConfig(),
                FEATURES, config, RandomStream(seed), on_mixed=on_mixed,
                pseudo_config=PseudoLabelConfig(threshold=0.2))


def assert_same_result(got, want):
    """Equal values and equal bytes: np.array_equal takes -0.0 for 0.0."""
    for a, b in ((got.losses, want.losses), (got.model.weights, want.model.weights),
                 (got.model.bias, want.model.bias)):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


class TestRunAheadEquivalence:
    @pytest.mark.parametrize("scan", [None, ScanSimConfig()], ids=["no-scan", "scan"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_pretrain_matches_plain_loop(self, scan, batch_size):
        scenes = pretrain_scenes()
        for augment in AUGMENTS:
            want = run_pretrain(sequential_pretrain, scenes, scan, batch_size, augment=augment)
            got = run_pretrain(train_pretrain, scenes, scan, batch_size, augment=augment)
            assert_same_result(got, want)
        assert trainers() == []

    @pytest.mark.parametrize("regen_every", [0, 2])
    def test_selftrain_matches_plain_loop(self, regen_every):
        source, target = selftrain_scenes()
        seen = {"plain": [], "ahead": []}
        runs = {}
        for key, impl in (("plain", sequential_selftrain), ("ahead", train_selftrain)):
            log = seen[key]
            runs[key] = run_selftrain(impl, source, target, regen_every,
                                      on_mixed=lambda it, cloud, log=log: log.append((it, cloud)))
        assert_same_result(runs["ahead"], runs["plain"])
        assert [it for it, _ in seen["ahead"]] == list(range(6))
        assert [it for it, _ in seen["plain"]] == list(range(6))
        for (_, a), (_, b) in zip(seen["ahead"], seen["plain"]):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.labels, b.labels)
        assert trainers() == []

    def test_regen_refresh_changes_the_run(self):
        # the refresh must see the stepped model: with it, the run differs
        # from one that keeps the initial labels
        source, target = selftrain_scenes()
        kept = run_selftrain(train_selftrain, source, target, 0)
        refreshed = run_selftrain(train_selftrain, source, target, 2)
        assert kept.losses[:2].tolist() == refreshed.losses[:2].tolist()
        assert not np.array_equal(kept.losses, refreshed.losses)
        assert trainers() == []

    def test_features_run_in_the_trainer_process(self, monkeypatch, tmp_path):
        # each call appends its name and process id to a file, which the
        # trainer process shares with this one
        log = tmp_path / "calls.txt"

        def recorder(name):
            original = getattr(seg, name)

            def recording(*args):
                with open(log, "a") as out:
                    out.write(f"{name} {os.getpid()}\n")
                return original(*args)

            return recording

        for name in ("extract_features", "_reused_features"):
            monkeypatch.setattr(seg, name, recorder(name))
        # elastic distortion searches afresh; the rigid draws reuse pairs
        for augment, runs in (("elastic", "extract_features"), ("rigid", "_reused_features")):
            log.write_text("")
            run_pretrain(train_pretrain, pretrain_scenes(), ScanSimConfig(), 2, iterations=3,
                         augment=augment)
            calls = [line.split() for line in log.read_text().splitlines()]
            assert [name for name, _ in calls] == [runs] * 6
            assert len({pid for _, pid in calls}) == 1
            assert calls[0][1] != str(os.getpid())
            assert trainers() == []

    def test_a_dead_trainer_raises_a_typed_error(self, monkeypatch):
        calls, original = [], seg.extract_features

        def dying(*args):
            calls.append(None)
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(seg, "extract_features", dying)
        scenes = pretrain_scenes()
        fds = open_fds()
        start = time.monotonic()
        with pytest.raises(TrainerError, match="exited with code -9"):
            run_pretrain(train_pretrain, scenes, ScanSimConfig(), 1)
        assert time.monotonic() - start < 10.0
        assert calls == []           # every feature call ran in the trainer
        assert trainers() == []
        assert open_fds() == fds


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


class FailingCall(Exception):
    pass


def fail_on_call(monkeypatch, name, at):
    # seg.<name> raises on its at-th call in the process that makes it
    calls, original = [], getattr(seg, name)

    def failing(*args):
        calls.append(None)
        if len(calls) == at:
            raise FailingCall(name)
        return original(*args)

    monkeypatch.setattr(seg, name, failing)


class TestBatchTransport:
    def test_a_batch_that_outgrows_the_map(self, monkeypatch):
        # the first batch fits the map, a later one holds more than its
        # first size and grows it
        small = random_cloud(TOY_TAXONOMY, n=300, seed=1)
        large = random_cloud(TOY_TAXONOMY, n=40_000, seed=3, scale=12.0)
        assert 32 * large.n > seg._MAP_BYTES
        sizes, drawn = [], []
        ftruncate, augment = os.ftruncate, seg._standard_augment
        monkeypatch.setattr(os, "ftruncate",
                            lambda fd, size: sizes.append(size) or ftruncate(fd, size))
        monkeypatch.setattr(seg, "_standard_augment",
                            lambda cloud, *args: drawn.append(cloud.n) or augment(cloud, *args))
        for augment_kind in AUGMENTS:
            sizes.clear()
            drawn.clear()
            want = run_pretrain(sequential_pretrain, [small, large], None, 1, iterations=5,
                                seed=6, augment=augment_kind)
            got = run_pretrain(train_pretrain, [small, large], None, 1, iterations=5,
                               seed=6, augment=augment_kind)
            assert_same_result(got, want)
            assert drawn[0] == small.n and large.n in drawn
            assert sizes[0] == seg._MAP_BYTES and max(sizes) > seg._MAP_BYTES
        assert trainers() == []

    @pytest.mark.parametrize("fault", [None, ("_standard_augment", 4), ("_scene_gradient", 3)],
                             ids=["normal", "draw-error", "trainer-error"])
    def test_every_path_closes_the_map_and_its_fd(self, monkeypatch, fault):
        scenes = pretrain_scenes()
        if fault is not None:
            fail_on_call(monkeypatch, *fault)
        fds = open_fds()
        if fault is None:
            run_pretrain(train_pretrain, scenes, ScanSimConfig(), 2, augment="rigid")
        else:
            with pytest.raises(FailingCall, match=fault[0]):
                run_pretrain(train_pretrain, scenes, ScanSimConfig(), 2, augment="rigid")
        assert trainers() == []
        assert open_fds() == fds

    def test_the_pipe_carries_no_cloud(self, monkeypatch):
        # every message pickles to a few hundred bytes, whatever the clouds'
        # size: their arrays go through the shared map
        sizes = []
        send = multiprocessing.connection.Connection.send

        def recording(conn, message):
            sizes.append(len(ForkingPickler.dumps(message)))
            return send(conn, message)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", recording)
        rng = RandomStream(40)
        scenes = [generate_scene(make_template("cluttered", rng, density=45.0), TOY_TAXONOMY, rng)
                  for _ in range(2)]
        drawn, augment = [], seg._standard_augment

        def counting(cloud, *args):
            out = augment(cloud, *args)
            drawn.append(out[0].n)
            return out

        monkeypatch.setattr(seg, "_standard_augment", counting)
        for kind in AUGMENTS:
            sizes.clear()
            drawn.clear()
            run_pretrain(train_pretrain, scenes, ScanSimConfig(), 3, iterations=3, augment=kind)
            assert len(sizes) == 3
            assert max(sizes) < 4096
            assert min(np.add.reduceat(drawn, [0, 3, 6])) > 4000


# Where a process can start: outside segmenter._Child the package refers
# to none of these, so every child shares one transport and one error.
_PROCESS_STARTS = (
    "multiprocessing", "concurrent.futures.process", "ProcessPoolExecutor", "os.fork",
)


def _process_starts(tree):
    """The sorted (line, name) of each reference in ``tree`` to one of
    ``_PROCESS_STARTS``, outside any class named _Child."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "_Child" for node in ast.walk(cls)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = [ast.unparse(node)]
        else:
            continue
        found.update((node.lineno, start) for name in names for start in _PROCESS_STARTS
                     if f".{start}." in f".{name}.")
    return sorted(found)


class TestChildTransport:
    def test_an_unpicklable_trainer_error_arrives_typed(self, monkeypatch):
        class Local(Exception):
            pass

        def raise_local(*args):
            raise Local("not importable by name")

        scenes = pretrain_scenes()
        monkeypatch.setattr(seg, "extract_features", raise_local)
        with pytest.raises(TrainerError) as err:
            run_pretrain(train_pretrain, scenes, ScanSimConfig(), 1)
        assert str(err.value) == "Local: not importable by name"
        # the trainer's traceback is the cause of the error it sent
        trace = str(err.value.__cause__)
        assert "in _trainer" in trace and "in raise_local" in trace
        assert trace.rstrip().endswith("Local: not importable by name")
        assert trainers() == []

    def test_only_the_child_primitive_starts_a_process(self):
        package = Path(seg.__file__).resolve().parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 5, package
        assert [p.name for p in modules if "class _Child" in p.read_text()] == ["segmenter.py"]
        found = [
            f"{path.name}:{lineno}: {name}"
            for path in modules
            for lineno, name in _process_starts(ast.parse(path.read_text(), str(path)))
        ]
        assert found == []

    def test_process_start_guard_bites(self):
        code = """
import multiprocessing.connection
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
import concurrent.futures.process
from os import fork


def f(os, concurrent):
    with ThreadPoolExecutor() as pool:
        pool.map(print, [])
    concurrent.futures.ProcessPoolExecutor()
    return os.fork(), multiprocessing.Pipe()


class _Child:
    def __init__(self):
        import multiprocessing
        multiprocessing.get_context("fork").Process().start()
"""
        assert _process_starts(ast.parse(code)) == [
            (2, "multiprocessing"), (3, "ProcessPoolExecutor"), (4, "concurrent.futures.process"),
            (5, "os.fork"), (11, "ProcessPoolExecutor"), (12, "multiprocessing"), (12, "os.fork"),
        ]


# --- neighbour reuse ---------------------------------------------------------

# the draws that reuse their scene's candidate pairs: source-only
# pretraining, scan pretraining, and the scanned source of self-training
DRAW_KINDS = {
    "source-only": (None, AugmentConfig(elastic=False)),
    "scan": (ScanSimConfig(delta_p=0.02), AugmentConfig(elastic=False)),
    "scan-only": (ScanSimConfig(delta_p=0.02), None),
}
PLANTED = FeatureConfig(voxel_size=0.02, radius=0.2)


def source_of(kept, perm, n):
    """Each draw point's index in its clean scene of n points: draw point j
    is clean point kept[perm[j]], kept None keeping every point and perm
    None their order."""
    source = np.arange(n) if kept is None else kept
    return source if perm is None else source[perm]


def cloud_of(positions):
    return LabeledPointCloud(positions, np.zeros(len(positions), dtype=int), TOY_TAXONOMY)


def planted_draw(scan, augment, angle, seed):
    """A random clean cloud and one draw of it made as the training loops
    make it (scan keep and jitter, then rotation, flips, jitter, shuffle),
    with two kinds of planted pairs: pairs a few ulps from r apart that
    move only rigidly, and diagonal pairs a few ulps from r + margin apart
    whose jitter shortens them by the whole margin, back to about r when
    ``angle`` is a quarter turn. Returns (clean, draw, kept, perm, the
    planted pairs as draw indices)."""
    gen = RandomStream(seed)
    r, margin, eps = PLANTED.radius, seg._pair_margin(scan, augment), np.finfo(float).eps
    scan_jitter = 0.0 if scan is None else scan.delta_p
    aug_jitter = 0.0 if augment is None else augment.jitter_range
    n_bg, n_pairs = 2500, 150
    heads = n_bg + np.arange(2 * n_pairs)
    tails = heads + 2 * n_pairs
    ulps = gen.integers(-4, 5, size=2 * n_pairs) * eps
    units = gen.normal(size=(n_pairs, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    diagonal = np.where(gen.random((n_pairs, 3)) < 0.5, -1.0, 1.0)
    offsets = np.concatenate([
        (r * (1 + ulps[:n_pairs]))[:, None] * units,
        ((r + margin) * (1 + ulps[n_pairs:]) / np.sqrt(3.0))[:, None] * diagonal,
    ])
    pos = gen.uniform(0.0, 2.0, size=(n_bg + 2 * n_pairs, 3))
    pos = np.concatenate([pos, pos[heads] + offsets])
    n = len(pos)
    shortened = np.concatenate([heads[n_pairs:], tails[n_pairs:]])

    shift = gen.uniform(-scan_jitter, scan_jitter, size=(n, 3))
    shift[np.concatenate([heads[:n_pairs], tails[:n_pairs]])] = 0.0
    shift[heads[n_pairs:]] = scan_jitter * diagonal
    shift[tails[n_pairs:]] = -scan_jitter * diagonal
    kept = None
    if scan is not None:
        kept = np.flatnonzero((gen.random(n) < 0.8) | (np.arange(n) >= n_bg))
    at = np.arange(n) if kept is None else np.full(n, -1)
    if kept is not None:
        at[kept] = np.arange(len(kept))
    draw = (pos + shift) if kept is None else (pos + shift)[kept]
    perm = None
    if augment is not None:
        center = 0.5 * (draw.min(axis=0) + draw.max(axis=0))
        c, s = np.cos(angle), np.sin(angle)
        xy = draw[:, :2] - center[:2]
        draw = np.column_stack(
            [c * xy[:, 0] - s * xy[:, 1] + center[0], s * xy[:, 0] + c * xy[:, 1] + center[1],
             draw[:, 2]]
        )
        draw[:, 0] = 2.0 * center[0] - draw[:, 0]
        jitter = gen.uniform(-aug_jitter, aug_jitter, size=draw.shape)
        jitter[at[heads[:n_pairs]]] = jitter[at[tails[:n_pairs]]] = 0.0
        direction = np.sign(draw[at[tails[n_pairs:]]] - draw[at[heads[n_pairs:]]])
        jitter[at[heads[n_pairs:]]] = aug_jitter * direction
        jitter[at[tails[n_pairs:]]] = -aug_jitter * direction
        perm = gen.permutation(len(draw))
        draw = (draw + jitter)[perm]
        at[at >= 0] = np.argsort(perm)[at[at >= 0]]
    assert (at[shortened] >= 0).all()
    return cloud_of(pos), cloud_of(draw), kept, perm, at[heads], at[tails]


class TestReusedNeighbours:
    @pytest.mark.parametrize("angle", [0.7, 1.5 * np.pi], ids=["turn", "quarter-turns"])
    @pytest.mark.parametrize("kind", sorted(DRAW_KINDS))
    def test_byte_equal_to_query_pairs_at_both_radii(self, kind, angle):
        scan, augment = DRAW_KINDS[kind]
        clean, draw, kept, perm, heads, tails = planted_draw(scan, augment, angle, seed=len(kind))
        radius = PLANTED.radius + seg._pair_margin(scan, augment)
        candidates = seg._candidates(clean.positions, radius)
        got = seg._reused_features(draw, PLANTED, candidates, source_of(kept, perm, clean.n))
        assert got.tobytes() == extract_features(draw, PLANTED).tobytes()
        # the planted pairs fall on both sides of r, by cKDTree's own test
        d = draw.positions[tails] - draw.positions[heads]
        inside = ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
                  <= PLANTED.radius * PLANTED.radius)
        assert 0 < inside[:150].sum() < 150
        if augment is None or angle != 0.7:
            assert 0 < inside[150:].sum() < 150

    @pytest.mark.parametrize("kind", sorted(DRAW_KINDS))
    def test_draws_match_the_public_path(self, kind):
        # k draws on two identically seeded streams: the public functions
        # and a fresh neighbour search against the private ones and reuse
        scan, augment = DRAW_KINDS[kind]
        scenes = pretrain_scenes()
        plans = cache(lambda i: scansim.plan_scan(scenes[i], scan, TOY_STRUCTURAL))
        radius = FEATURES.radius + seg._pair_margin(scan, augment)
        plain, reused = RandomStream(8), RandomStream(8)
        for k in range(9):
            si = k % len(scenes)
            want = got = scenes[si]
            kept = perm = None
            if scan is not None:
                want = scan_and_jitter(want, scan, TOY_STRUCTURAL, plain, plans(si))
                got, kept = seg._scan_and_jitter(got, scan, TOY_STRUCTURAL, reused, plans(si))
            if augment is not None:
                want = standard_augment(want, augment, plain)
                got, perm = seg._standard_augment(got, augment, reused)
            assert got.positions.tobytes() == want.positions.tobytes()
            assert np.array_equal(got.labels, want.labels)
            candidates = seg._candidates(scenes[si].positions, radius)
            features = seg._reused_features(got, FEATURES, candidates, source_of(kept, perm, scenes[si].n))
            assert features.tobytes() == extract_features(want, FEATURES).tobytes()

    def test_a_dropped_point_near_a_kept_one(self):
        # dropped points planted within r of kept ones: their candidate
        # pairs are in the table and must fail on the dropped end's NaN;
        # the cloud is centred on the origin, so a dropped point put at
        # zero instead would have kept neighbours too
        gen = RandomStream(21)
        pos = gen.uniform(-1.0, 1.0, size=(1500, 3))
        offsets = gen.normal(size=(200, 3))
        offsets *= 0.5 * PLANTED.radius / np.linalg.norm(offsets, axis=1, keepdims=True)
        pos = np.concatenate([pos, pos[:200] + offsets])
        clean = cloud_of(pos)
        kept = np.arange(1500)
        perm = gen.permutation(len(kept))
        shuffled = cloud_of(pos[kept[perm]] + gen.uniform(-0.01, 0.01, size=(len(kept), 3)))
        radius = PLANTED.radius + 2.0 * np.sqrt(3.0) * 0.01
        a, b, n = seg._candidates(pos, radius)
        assert n == len(pos)
        assert set(zip(range(200), range(1500, 1700))) <= set(zip(a.tolist(), b.tolist()))
        for order, draw in ((perm, shuffled), (None, cloud_of(pos[kept]))):
            got = seg._reused_features(draw, PLANTED, (a, b, n), source_of(kept, order, n))
            assert got.tobytes() == extract_features(draw, PLANTED).tobytes()

    def test_a_draw_that_neither_drops_nor_shuffles(self):
        scan, augment = None, AugmentConfig(elastic=False, shuffle=False)
        scenes = pretrain_scenes()
        radius = FEATURES.radius + seg._pair_margin(scan, augment)
        rng = RandomStream(22)
        for scene in scenes:
            draw, perm = seg._standard_augment(scene, augment, rng)
            assert perm is None
            candidates = seg._candidates(scene.positions, radius)
            got = seg._reused_features(draw, FEATURES, candidates, source_of(None, None, scene.n))
            assert got.tobytes() == extract_features(draw, FEATURES).tobytes()

    def test_a_scanned_draw_without_shuffle(self):
        # self-training's source draw: the scan drops points, nothing shuffles
        scan = ScanSimConfig()
        scenes = pretrain_scenes()
        plans = cache(lambda i: scansim.plan_scan(scenes[i], scan, TOY_STRUCTURAL))
        radius = FEATURES.radius + seg._pair_margin(scan, None)
        candidates_of = cache(lambda i: seg._candidates(scenes[i].positions, radius))
        rng = RandomStream(23)
        for si in (0, 1, 2, 0):
            draw, kept = seg._scan_and_jitter(scenes[si], scan, TOY_STRUCTURAL, rng, plans(si))
            assert len(kept) < scenes[si].n
            got = seg._reused_features(draw, FEATURES, candidates_of(si), source_of(kept, None, scenes[si].n))
            assert got.tobytes() == extract_features(draw, FEATURES).tobytes()

    def test_elastic_distortion_has_no_margin(self):
        for scan in (None, ScanSimConfig()):
            assert seg._pair_margin(scan, AugmentConfig()) is None
            assert seg._pair_margin(scan, AugmentConfig(elastic=False)) is not None

    def test_candidates_are_stored_narrow(self):
        small = seg._candidates(random_cloud(TOY_TAXONOMY, n=300, seed=1).positions, 0.2)
        large = seg._candidates(random_cloud(TOY_TAXONOMY, n=70_000, seed=2).positions, 0.01)
        assert small[0].dtype == small[1].dtype == np.uint16
        assert large[0].dtype == large[1].dtype == np.uint32


class BranchedDescent:
    """Reference: ``_Descent`` as it was, taking momentum and decay only
    when they are positive, and stepping its own weights and bias."""

    def __init__(self, model, config):
        self.base_lr = config.learning_rate
        self.momentum = config.momentum
        self.decay = config.lr_decay_power
        self.total = max(config.iterations, 1)
        self.t = 0
        self.weights = model.weights.copy()
        self.bias = model.bias.copy()
        self.vel_w = np.zeros_like(self.weights)
        self.vel_b = np.zeros_like(self.bias)

    def step(self, grad_w, grad_b):
        lr = self.base_lr
        if self.decay > 0:
            lr *= (1.0 - self.t / self.total) ** self.decay
        self.t += 1
        if self.momentum > 0:
            self.vel_w = self.momentum * self.vel_w + grad_w
            self.vel_b = self.momentum * self.vel_b + grad_b
            grad_w, grad_b = self.vel_w, self.vel_b
        self.weights -= lr * grad_w
        self.bias -= lr * grad_b


def signed_zero_gradient(gen, shape):
    """Normal entries, about 40% of them replaced by +0.0 or -0.0."""
    grad = gen.normal(size=shape)
    zero = gen.random(size=shape) < 0.4
    grad[zero] = np.where(gen.random(size=shape) < 0.5, 0.0, -0.0)[zero]
    return grad


class TestDescent:
    @pytest.mark.parametrize("momentum, decay", [(0.0, 0.0), (0.95, 0.9)])
    def test_matches_branched_step_bit_for_bit(self, momentum, decay):
        config = TrainConfig(learning_rate=0.05, iterations=30, momentum=momentum, lr_decay_power=decay)
        model = SegmenterModel.zeros(TOY_TAXONOMY)
        new, old = seg._Descent(model, config), BranchedDescent(model, config)
        gen = RandomStream(17)
        planted = 0
        for _ in range(config.iterations):
            grad_w = signed_zero_gradient(gen, new.model.weights.shape)
            grad_b = signed_zero_gradient(gen, new.model.bias.shape)
            planted += int(np.signbit(grad_w[grad_w == 0]).sum())
            new.step(np.concatenate([grad_w.reshape(-1), grad_b]))
            old.step(grad_w, grad_b)
            assert new.model.weights.tobytes() == old.weights.tobytes()
            assert new.model.bias.tobytes() == old.bias.tobytes()
        assert planted > 0
        assert not np.array_equal(new.model.weights, model.weights)


# --- error order -------------------------------------------------------------

# layer -> the (module, name) bindings through which the loops reach it:
# the plain references call the public functions, the training loops the
# private ones that also return the draw's kept indices and permutation
# and the feature call that reuses the scene's candidate pairs
PATCHABLE = {
    "scan_and_jitter": ((scansim, "scan_and_jitter"), (seg, "_scan_and_jitter")),
    "standard_augment": ((core, "standard_augment"), (seg, "_standard_augment")),
    "compose_mixed_scene": ((seg, "compose_mixed_scene"),),
    "extract_features": ((seg, "extract_features"), (seg, "_reused_features")),
    "_scene_gradient": ((seg, "_scene_gradient"),),
    "generate_pseudo_labels": ((seg, "generate_pseudo_labels"),),
}
ORIGINALS = {
    (module, name): getattr(module, name)
    for bindings in PATCHABLE.values() for module, name in bindings
}


class InjectedFault(Exception):
    pass


def install_faults(monkeypatch, faults):
    """Patch the layer functions so that call k (from 0) of layer f, through
    any of its bindings, fails as ``faults[(f, k)]`` says: "nan" makes that
    gradient's loss non-finite, "raise" raises InjectedFault naming the
    call. Each install restarts the counts."""
    counts = dict.fromkeys(PATCHABLE, 0)
    lock = threading.Lock()

    def wrap(layer, original):
        def wrapper(*args, **kwargs):
            with lock:
                k = counts[layer]
                counts[layer] += 1
            fault = faults.get((layer, k))
            if fault == "raise":
                raise InjectedFault(f"{layer} call {k}")
            out = original(*args, **kwargs)
            if fault == "nan":
                return (float("nan"),) + out[1:]
            return out

        return wrapper

    for layer, bindings in PATCHABLE.items():
        for module, name in bindings:
            monkeypatch.setattr(module, name, wrap(layer, ORIGINALS[(module, name)]))


def outcome(monkeypatch, faults, call):
    install_faults(monkeypatch, faults)
    try:
        call()
    except Exception as exc:
        assert trainers() == []
        return type(exc), str(exc)
    assert trainers() == []
    return None


class TestRunAheadErrorOrder:
    @pytest.mark.parametrize(
        "batch_size, faults, want",
        [
            # batch 1: iteration t draws scan call t
            (1, {("scan_and_jitter", 3): "raise"}, (InjectedFault, "scan_and_jitter call 3")),
            (1, {("_scene_gradient", 2): "nan", ("scan_and_jitter", 3): "raise"},
             (DivergenceError, "non-finite loss at iteration 2")),
            (1, {("extract_features", 2): "raise", ("scan_and_jitter", 3): "raise"},
             (InjectedFault, "extract_features call 2")),
            (1, {("_scene_gradient", 4): "nan", ("extract_features", 5): "raise"},
             (DivergenceError, "non-finite loss at iteration 4")),
            (1, {("standard_augment", 5): "raise"}, (InjectedFault, "standard_augment call 5")),
            (1, {("_scene_gradient", 5): "nan"}, (DivergenceError, "non-finite loss at iteration 5")),
            # batch 3: iteration t draws scan calls 3t, 3t+1, 3t+2
            (3, {("_scene_gradient", 3): "raise", ("scan_and_jitter", 5): "raise"},
             (InjectedFault, "_scene_gradient call 3")),
            (3, {("extract_features", 4): "raise", ("scan_and_jitter", 5): "raise"},
             (InjectedFault, "extract_features call 4")),
            (3, {("_scene_gradient", 1): "nan", ("scan_and_jitter", 4): "raise"},
             (DivergenceError, "non-finite loss at iteration 0")),
            (3, {("extract_features", 5): "raise", ("scan_and_jitter", 4): "raise"},
             (InjectedFault, "scan_and_jitter call 4")),
        ],
    )
    def test_pretrain_raises_in_plain_order(self, monkeypatch, batch_size, faults, want):
        scenes = pretrain_scenes()
        for augment in AUGMENTS:
            for impl in (sequential_pretrain, train_pretrain):
                got = outcome(monkeypatch, faults,
                              lambda: run_pretrain(impl, scenes, ScanSimConfig(), batch_size,
                                                   augment=augment))
                assert got == want, (augment, impl.__name__)

    @pytest.mark.parametrize(
        "regen_every, faults, want, mixed_seen",
        [
            # iteration t: scan call t, compose call t, features and
            # gradients 2t (mixed) then 2t+1 (source)
            (0, {("_scene_gradient", 4): "nan", ("scan_and_jitter", 3): "raise"},
             (DivergenceError, "non-finite loss at iteration 2"), 3),
            (0, {("scan_and_jitter", 3): "raise"}, (InjectedFault, "scan_and_jitter call 3"), 3),
            (0, {("_scene_gradient", 4): "nan"}, (DivergenceError, "non-finite loss at iteration 2"), 3),
            (0, {("compose_mixed_scene", 2): "raise", ("extract_features", 3): "raise"},
             (InjectedFault, "extract_features call 3"), 2),
            (0, {("_scene_gradient", 3): "raise", ("compose_mixed_scene", 2): "raise"},
             (InjectedFault, "_scene_gradient call 3"), 2),
            (0, {("on_mixed", 1): "raise", ("scan_and_jitter", 2): "raise"},
             (InjectedFault, "on_mixed 1"), 2),
            (0, {("_scene_gradient", 11): "nan"}, (DivergenceError, "non-finite loss at iteration 5"), 6),
            # the refresh at iteration 2 runs after iteration 1's step
            (2, {("generate_pseudo_labels", 0): "raise", ("_scene_gradient", 2): "nan"},
             (DivergenceError, "non-finite loss at iteration 1"), 2),
            (2, {("generate_pseudo_labels", 1): "raise"},
             (InjectedFault, "generate_pseudo_labels call 1"), 2),
        ],
    )
    def test_selftrain_raises_in_plain_order(self, monkeypatch, regen_every, faults, want, mixed_seen):
        source, target = selftrain_scenes()
        logs = []
        for impl in (sequential_selftrain, train_selftrain):
            log = []

            def on_mixed(it, cloud, log=log):
                log.append(it)
                if faults.get(("on_mixed", it)) == "raise":
                    raise InjectedFault(f"on_mixed {it}")

            got = outcome(monkeypatch, faults,
                          lambda: run_selftrain(impl, source, target, regen_every, on_mixed=on_mixed))
            assert got == want, impl.__name__
            logs.append(log)
        assert logs[0] == logs[1] == list(range(mixed_seen))


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
        model = SegmenterModel(np.arange(42.0).reshape(6, 7), -np.arange(1.0, 7.0), TOY_TAXONOMY)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        # row-major little-endian weights, then the bias
        payload = struct.pack("<42d", *range(42)) + struct.pack("<6d", *range(-1, -7, -1))
        assert path.read_bytes() == b"d=7 c=6 taxonomy=toy6\n" + payload

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
            (b"d=9 d=7 c=6 taxonomy=toy6", 7, 6),         # repeated key
            (b"d=7 c=6 taxonomy=toy6 extra=1", 7, 6),     # unknown key
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, d, c):
        path = tmp_path / "model.bin"
        path.write_bytes(header + b"\n" + bytes((c * d + c) * 8))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path, TOY_TAXONOMY)
        assert err.value.path == str(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(SegmenterModel.zeros(TOY_TAXONOMY), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header + b"\n" + b"\xff" * len(payload))
        with pytest.raises(ParseError, match="finite") as err:
            load_checkpoint(path, TOY_TAXONOMY)
        assert err.value.path == str(path)

    def test_wrong_taxonomy_rejected(self, tmp_path, taxonomy):
        model = SegmenterModel.zeros(TOY_TAXONOMY)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(ParseError):
            load_checkpoint(path, taxonomy)
