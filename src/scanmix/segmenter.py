"""Reference per-point segmenter: handcrafted geometric features under a
linear softmax model, trained by plain gradient descent.

This keeps the full pretrain / pseudo-label / self-train loop executable
and numerically checkable in seconds. It deliberately is not a deep
backbone; the training objectives and both data augmentations are the
point, not the capacity of the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import (
    AugmentConfig,
    ClassTaxonomy,
    LabeledPointCloud,
    RandomStream,
    StructuralClasses,
    standard_augment,
)
from .cuboidmix import CuboidMixConfig, TailCuboidQueue, compose_mixed_scene
from .errors import (
    DimensionError,
    DivergenceError,
    EmptyInputError,
    IoError,
    NoSupervisionError,
    ParseError,
)
from .pseudo import PseudoLabelConfig, class_ratio, generate_pseudo_labels
from .scansim import ScanSimConfig, plan_scan, scan_and_jitter

FEATURE_DIM = 7


@dataclass(frozen=True)
class FeatureConfig:
    """Neighborhood parameters for the handcrafted features."""

    voxel_size: float = 0.02   # vertical slab half-width for the planarity proxy
    radius: float = 0.15       # neighborhood radius, meters

    def __post_init__(self):
        if self.voxel_size <= 0 or self.radius <= 0:
            raise ValueError("voxel_size and radius must be positive")


def extract_features(cloud: LabeledPointCloud, config: FeatureConfig) -> np.ndarray:
    """Per-point feature matrix of width 7; columns in order:

    0. height above the cloud's z minimum
    1. normalized height (0 when the z extent is zero)
    2. neighbor count within ``radius`` (self included)
    3. z extent among those neighbors
    4. horizontal distance to the x-y bounding-box boundary
    5. planarity proxy: fraction of neighbors within +-voxel_size in z
    6. constant 1
    """
    if cloud.n == 0:
        raise EmptyInputError("cannot extract features of an empty cloud")
    pos = cloud.positions
    n = cloud.n
    z = pos[:, 2]
    z_min, z_max = z.min(), z.max()
    height = z - z_min
    extent = z_max - z_min
    norm_height = height / extent if extent > 0 else np.zeros(n)

    # neighbor statistics via the (i < j) pair list; every point is its own
    # neighbor, so counts start at one and extents at zero
    # (the unbalanced, non-compact tree finds the same pairs and builds faster;
    # the counts are integer-valued, so summing them in any order is exact)
    tree = cKDTree(pos, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(config.radius, output_type="ndarray")
    a, b = pairs[:, 0], pairs[:, 1]
    count = 1.0 + np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    z_lo = z.copy()
    z_hi = z.copy()
    np.minimum.at(z_lo, a, z[b])
    np.minimum.at(z_lo, b, z[a])
    np.maximum.at(z_hi, a, z[b])
    np.maximum.at(z_hi, b, z[a])
    near = np.abs(z[a] - z[b]) <= config.voxel_size
    planar_num = 1.0 + np.bincount(a[near], minlength=n) + np.bincount(b[near], minlength=n)
    z_ext = z_hi - z_lo
    planar = planar_num / count

    x_min, y_min = pos[:, 0].min(), pos[:, 1].min()
    x_max, y_max = pos[:, 0].max(), pos[:, 1].max()
    boundary = np.minimum.reduce(
        [pos[:, 0] - x_min, x_max - pos[:, 0], pos[:, 1] - y_min, y_max - pos[:, 1]]
    )
    return np.column_stack(
        [height, norm_height, count, z_ext, boundary, planar, np.ones(n)]
    )


@dataclass
class SegmenterModel:
    """Linear softmax classifier over the feature columns."""

    weights: np.ndarray          # (c, d)
    bias: np.ndarray             # (c,)
    taxonomy: ClassTaxonomy

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.shape != (self.taxonomy.count, self.weights.shape[1]):
            raise DimensionError("weights must be (c, d)")
        if self.bias.shape != (self.taxonomy.count,):
            raise DimensionError("bias must be (c,)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("model parameters must be finite")

    @classmethod
    def zeros(cls, taxonomy: ClassTaxonomy, d: int = FEATURE_DIM) -> "SegmenterModel":
        return cls(np.zeros((taxonomy.count, d)), np.zeros(taxonomy.count), taxonomy)

    def copy(self) -> "SegmenterModel":
        return SegmenterModel(self.weights.copy(), self.bias.copy(), self.taxonomy)

    @property
    def d(self) -> int:
        return self.weights.shape[1]


def forward_scores(model: SegmenterModel, features: np.ndarray) -> np.ndarray:
    """Row-wise softmax of W f + b, stabilized by max subtraction."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.d:
        raise DimensionError(
            f"features are {features.shape}, model expects (*, {model.d})"
        )
    logits = features @ model.weights.T + model.bias
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(
    scores: np.ndarray,
    labels: np.ndarray,
    ignore_index: int = -1,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over non-ignored rows plus its gradient with
    respect to the pre-softmax logits ((S - onehot) / n on those rows,
    zero elsewhere). Probabilities are clamped at 1e-12."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise DimensionError("scores and labels disagree on the point count")
    keep = labels != ignore_index
    valid = np.flatnonzero(keep)
    if len(valid) == 0:
        raise NoSupervisionError("every point is ignored")
    target = labels[valid]
    picked = scores[valid, target]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad = np.where(keep[:, None], scores, 0.0)
    grad[valid, target] -= 1.0
    grad /= len(valid)
    return loss, grad


def predict_labels(model: SegmenterModel, cloud: LabeledPointCloud, config: FeatureConfig) -> np.ndarray:
    return forward_scores(model, extract_features(cloud, config)).argmax(axis=1)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings shared by both training stages."""

    learning_rate: float = 0.02
    iterations: int = 200
    batch_size: int = 2          # scenes per step
    source_loss_weight: float = 0.5   # trade-off on the source term in self-training
    momentum: float = 0.0
    lr_decay_power: float = 0.0  # polynomial decay exponent; 0 keeps lr constant
    regen_every: int = 0         # self-training: refresh pseudo labels every N steps (0 = never)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.source_loss_weight < 0:
            raise ValueError("source_loss_weight must be >= 0")
        if self.iterations < 0 or self.batch_size < 1:
            raise ValueError("iterations must be >= 0 and batch_size >= 1")
        if self.lr_decay_power < 0:
            raise ValueError("lr_decay_power must be >= 0")
        if self.regen_every < 0:
            raise ValueError("regen_every must be >= 0")


@dataclass
class TrainResult:
    model: SegmenterModel
    losses: np.ndarray


class _Descent:
    """Gradient step with optional momentum and polynomial lr decay."""

    def __init__(self, model: SegmenterModel, config: TrainConfig):
        self.model = model.copy()
        self.base_lr = config.learning_rate
        self.momentum = config.momentum
        self.decay = config.lr_decay_power
        self.total = max(config.iterations, 1)
        self.t = 0
        self.vel_w = np.zeros_like(self.model.weights)
        self.vel_b = np.zeros_like(self.model.bias)

    def step(self, grad_w, grad_b):
        lr = self.base_lr
        if self.decay > 0:
            lr *= (1.0 - self.t / self.total) ** self.decay
        self.t += 1
        if self.momentum > 0:
            self.vel_w = self.momentum * self.vel_w + grad_w
            self.vel_b = self.momentum * self.vel_b + grad_b
            grad_w, grad_b = self.vel_w, self.vel_b
        self.model.weights -= lr * grad_w
        self.model.bias -= lr * grad_b


def _scene_gradient(model, cloud, features):
    scores = forward_scores(model, features)
    loss, grad_logits = cross_entropy(scores, cloud.labels, cloud.taxonomy.ignore_index)
    return loss, grad_logits.T @ features, grad_logits.sum(axis=0)


def _lazy_plans(scenes, scan_config, structural):
    """``plan_of(i)``: scene i's scan plan, built the first time scene i is
    drawn, so a scene that cannot be scanned fails at the same draw as it
    would without plans, and no random draw moves."""
    plans = [None] * len(scenes)

    def plan_of(i):
        if plans[i] is None:
            plans[i] = plan_scan(scenes[i], scan_config, structural)
        return plans[i]

    return plan_of


def train_pretrain(
    model: SegmenterModel,
    scenes: Sequence[LabeledPointCloud],
    scan_config: ScanSimConfig | None,
    structural: StructuralClasses,
    augment_config: AugmentConfig,
    feature_config: FeatureConfig,
    train_config: TrainConfig,
    rng: RandomStream,
) -> TrainResult:
    """Supervised pretraining on source scenes.

    Each iteration draws a batch of scenes (uniform with replacement),
    applies the scan simulation plus jitter when ``scan_config`` is given,
    applies the standard augmentations, and takes one descent step on the
    mean cross-entropy. Zero iterations return the model unchanged.
    """
    if not scenes:
        raise EmptyInputError("no source scenes")
    if train_config.iterations == 0:
        return TrainResult(model, np.zeros(0))
    opt = _Descent(model, train_config)
    losses = np.zeros(train_config.iterations)
    plan_of = _lazy_plans(scenes, scan_config, structural)
    for it in range(train_config.iterations):
        picks = rng.integers(0, len(scenes), size=train_config.batch_size)
        grad_w = np.zeros_like(opt.model.weights)
        grad_b = np.zeros_like(opt.model.bias)
        total = 0.0
        for si in picks:
            scene = scenes[int(si)]
            if scan_config is not None:
                scene = scan_and_jitter(scene, scan_config, structural, rng, plan_of(int(si)))
            scene = standard_augment(scene, augment_config, rng)
            feats = extract_features(scene, feature_config)
            loss, gw, gb = _scene_gradient(opt.model, scene, feats)
            grad_w += gw
            grad_b += gb
            total += loss
        total /= train_config.batch_size
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        losses[it] = total
        opt.step(grad_w / train_config.batch_size, grad_b / train_config.batch_size)
    return TrainResult(opt.model, losses)


def train_selftrain(
    model: SegmenterModel,
    source_scenes: Sequence[LabeledPointCloud],
    target_scenes: Sequence[LabeledPointCloud],
    scan_config: ScanSimConfig,
    structural: StructuralClasses,
    mix_config: CuboidMixConfig,
    feature_config: FeatureConfig,
    train_config: TrainConfig,
    rng: RandomStream,
    on_mixed: Callable[[int, LabeledPointCloud], None] | None = None,
    pseudo_config: PseudoLabelConfig | None = None,
) -> TrainResult:
    """Self-training on pseudo-labeled target scenes plus source scenes.

    ``target_scenes`` carry pseudo labels (ignore where filtered). Each
    iteration draws one target and one source scene, scan-augments the
    source, composes the mixed scene through the shared tail queue, and
    steps on CE(mixed) + source_loss_weight * CE(augmented source).

    With ``train_config.regen_every > 0`` and a ``pseudo_config``, the
    pseudo labels (and class ratios) are refreshed from the current model
    every that many iterations; the default keeps the initial labels.
    """
    if not source_scenes or not target_scenes:
        raise EmptyInputError("self-training needs source and target scenes")
    if train_config.iterations == 0:
        return TrainResult(model, np.zeros(0))
    taxonomy = target_scenes[0].taxonomy
    target_scenes = list(target_scenes)
    ratios = class_ratio(
        np.concatenate([s.labels for s in target_scenes]), taxonomy
    )
    queue = TailCuboidQueue(mix_config.queue_cap)
    lam = train_config.source_loss_weight
    opt = _Descent(model, train_config)
    losses = np.zeros(train_config.iterations)
    plan_of = _lazy_plans(source_scenes, scan_config, structural)
    for it in range(train_config.iterations):
        if (
            train_config.regen_every > 0
            and pseudo_config is not None
            and it > 0
            and it % train_config.regen_every == 0
        ):
            target_scenes = [
                t.with_labels(
                    generate_pseudo_labels(
                        forward_scores(opt.model, extract_features(t, feature_config)),
                        pseudo_config,
                        taxonomy.ignore_index,
                    )
                )
                for t in target_scenes
            ]
            ratios = class_ratio(
                np.concatenate([s.labels for s in target_scenes]), taxonomy
            )
        tgt = target_scenes[int(rng.integers(0, len(target_scenes)))]
        si = int(rng.integers(0, len(source_scenes)))
        src = scan_and_jitter(source_scenes[si], scan_config, structural, rng, plan_of(si))
        result = compose_mixed_scene(src, tgt, ratios, mix_config, queue, rng)
        mixed_cloud = result.mixed.cloud
        if on_mixed is not None:
            on_mixed(it, mixed_cloud)
        feats_m = extract_features(mixed_cloud, feature_config)
        loss_m, gw_m, gb_m = _scene_gradient(opt.model, mixed_cloud, feats_m)
        feats_s = extract_features(src, feature_config)
        loss_s, gw_s, gb_s = _scene_gradient(opt.model, src, feats_s)
        total = loss_m + lam * loss_s
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        losses[it] = total
        opt.step(gw_m + lam * gw_s, gb_m + lam * gb_s)
    return TrainResult(opt.model, losses)


def save_checkpoint(model: SegmenterModel, path) -> None:
    """One ascii header line (d, c, taxonomy name) followed by row-major
    little-endian float64 weights, then the bias."""
    c, d = model.weights.shape
    try:
        with open(path, "wb") as f:
            f.write(f"d={d} c={c} taxonomy={model.taxonomy.name}\n".encode("ascii"))
            f.write(model.weights.astype("<f8").tobytes(order="C"))
            f.write(model.bias.astype("<f8").tobytes())
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def load_checkpoint(path, taxonomy: ClassTaxonomy) -> SegmenterModel:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoError(f"failed to read {path}: {exc}") from exc
    end = data.find(b"\n")
    if end < 0:
        raise ParseError(path, "missing checkpoint header")
    try:
        tokens = data[:end].decode("ascii").split()
    except UnicodeDecodeError:
        raise ParseError(path, "checkpoint header is not ascii", line=1) from None
    if not all("=" in t for t in tokens):
        raise ParseError(path, "header tokens must be key=value", line=1)
    fields = dict(t.split("=", 1) for t in tokens)
    try:
        d, c = int(fields["d"]), int(fields["c"])
        name = fields["taxonomy"]
    except KeyError as exc:
        raise ParseError(path, f"header lacks {exc}") from exc
    except ValueError as exc:
        raise ParseError(path, f"bad header value: {exc}", line=1) from exc
    if d != FEATURE_DIM:
        raise ParseError(path, f"checkpoint has {d} feature columns, features have {FEATURE_DIM}")
    if c != taxonomy.count:
        raise ParseError(path, f"checkpoint has {c} classes, taxonomy {taxonomy.count}")
    if name != taxonomy.name:
        raise ParseError(path, f"checkpoint taxonomy {name!r} != {taxonomy.name!r}")
    payload = data[end + 1 :]
    need = (c * d + c) * 8
    if len(payload) != need:
        raise ParseError(path, f"expected {need} payload bytes, found {len(payload)}")
    weights = np.frombuffer(payload[: c * d * 8], dtype="<f8").reshape(c, d)
    bias = np.frombuffer(payload[c * d * 8 :], dtype="<f8")
    return SegmenterModel(weights.copy(), bias.copy(), taxonomy)
