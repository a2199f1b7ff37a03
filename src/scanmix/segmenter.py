"""Reference per-point segmenter: handcrafted geometric features under a
linear softmax model, trained by plain gradient descent.

This keeps the full pretrain / pseudo-label / self-train loop executable
and numerically checkable in seconds. It deliberately is not a deep
backbone; the training objectives and both data augmentations are the
point, not the capacity of the classifier.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import traceback
from dataclasses import dataclass
from functools import cache
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
    _check_finite_floats,
    _narrow_reduce,
    _standard_augment,
)
from .cuboidmix import CuboidMixConfig, TailCuboidQueue, compose_mixed_scene
from .errors import (
    DimensionError,
    DivergenceError,
    EmptyInputError,
    NoSupervisionError,
    ParseError,
    TrainerError,
    UnknownLabelError,
)
from .io import _exists, _read_headed, _write_headed
from .pseudo import PseudoLabelConfig, class_ratio, generate_pseudo_labels
from .scansim import ScanSimConfig, _scan_and_jitter, plan_scan

FEATURE_DIM = 7
_CHECKPOINT_HEADER = ("d", "c", "taxonomy")
# A statistics file's header: what its payload holds, then the point count,
# the feature config and the digest of the positions it was computed from.
_STATS_HEADER = ("holds", "n", "radius", "voxel_size", "positions_sha256")
_STATS_HOLDS = "count,z_extent,planar_count"
# Its payload: each statistic of ``neighbour_stats`` in turn, one value a
# point, in these little-endian dtypes.
_STATS_DTYPES = ("<u4", "<f8", "<u4")


@dataclass(frozen=True)
class FeatureConfig:
    """Neighborhood parameters for the handcrafted features."""

    voxel_size: float = 0.02   # vertical slab half-width for the planarity proxy
    radius: float = 0.15       # neighborhood radius, meters

    def __post_init__(self):
        _check_finite_floats(self)
        if not (self.voxel_size > 0 and self.radius > 0):
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
    return _pair_features(cloud, neighbour_stats(cloud, config))


def neighbour_stats(cloud: LabeledPointCloud, config: FeatureConfig):
    """The ``_neighbour_stats`` of every point of ``cloud`` within
    ``config.radius``, from one neighbour search; the columns of
    ``extract_features`` that need the neighbours come from these."""
    pairs = _pairs_within(cloud.positions, config.radius)
    return _neighbour_stats(cloud.positions[:, 2], pairs[:, 0], pairs[:, 1], config.voxel_size)


def _pairs_within(pos, radius):
    # every pair (i < j) with (dx*dx + dy*dy) + dz*dz <= radius*radius,
    # which is the test cKDTree applies for p = 2 (the unbalanced,
    # non-compact tree finds the same pairs and builds faster)
    tree = cKDTree(pos, balanced_tree=False, compact_nodes=False)
    return tree.query_pairs(radius, output_type="ndarray")


def _pair_features(cloud, stats):
    """The feature matrix of ``cloud`` from the ``_neighbour_stats`` of its
    points, in the cloud's order."""
    if cloud.n == 0:
        raise EmptyInputError("cannot extract features of an empty cloud")
    pos = cloud.positions
    n = cloud.n
    z = pos[:, 2]
    z_min, z_max = z.min(), z.max()
    height = z - z_min
    extent = z_max - z_min
    norm_height = height / extent if extent > 0 else np.zeros(n)

    count, z_ext, planar = stats

    x_min, y_min = pos[:, 0].min(), pos[:, 1].min()
    x_max, y_max = pos[:, 0].max(), pos[:, 1].max()
    boundary = np.minimum.reduce(
        [pos[:, 0] - x_min, x_max - pos[:, 0], pos[:, 1] - y_min, y_max - pos[:, 1]]
    )
    return np.column_stack(
        [height, norm_height, count, z_ext, boundary, planar / count, np.ones(n)]
    )


def _neighbour_stats(z, a, b, voxel_size):
    """Neighbour count, z extent and planar neighbour count (those within
    ``voxel_size`` in z) of each point of ``z``, from its neighbour pairs:
    (a[k], b[k]) lists each unordered pair within the radius once, in any
    order and either orientation. Every statistic is an integer count or a
    min/max, so the result does not depend on that order. Every point is
    its own neighbour, so counts start at one and extents at zero."""
    n = len(z)
    count = 1 + np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    z_lo = z.copy()
    z_hi = z.copy()
    za, zb = z[a], z[b]
    np.minimum.at(z_lo, a, zb)
    np.minimum.at(z_lo, b, za)
    np.maximum.at(z_hi, a, zb)
    np.maximum.at(z_hi, b, za)
    near = np.abs(za - zb) <= voxel_size
    planar = 1 + np.bincount(a[near], minlength=n) + np.bincount(b[near], minlength=n)
    return count, z_hi - z_lo, planar


class SegmenterModel:
    """Linear softmax classifier over the feature columns. Its parameters
    are one fresh float64 vector, ``params``: the (c, FEATURE_DIM) weights
    row-major, then the (c,) bias, as in a checkpoint's payload. ``weights``
    and ``bias`` are read-only views into it. Other shapes and non-finite
    parameters raise DimensionError."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, taxonomy: ClassTaxonomy):
        c = taxonomy.count
        if np.shape(weights) != (c, FEATURE_DIM) or np.shape(bias) != (c,):
            raise DimensionError(f"weights {np.shape(weights)} and bias {np.shape(bias)} "
                                 f"must be ({c}, {FEATURE_DIM}) and ({c},)")
        self.taxonomy = taxonomy
        self.params = self._join(weights, bias)
        if not np.isfinite(self.params).all():
            raise DimensionError("model parameters must be finite")

    @staticmethod
    def _join(weights, bias):
        """The layout of ``params`` and of its gradient; ``_split`` undoes it."""
        return np.concatenate([np.reshape(weights, -1), bias], dtype=np.float64)

    @staticmethod
    def _split(params, c):
        view = params.view()
        view.flags.writeable = False
        return view[: c * FEATURE_DIM].reshape(c, FEATURE_DIM), view[c * FEATURE_DIM :]

    weights = property(lambda self: self._split(self.params, self.taxonomy.count)[0])
    bias = property(lambda self: self._split(self.params, self.taxonomy.count)[1])

    @classmethod
    def zeros(cls, taxonomy: ClassTaxonomy) -> "SegmenterModel":
        return cls(np.zeros((taxonomy.count, FEATURE_DIM)), np.zeros(taxonomy.count), taxonomy)

    def copy(self) -> "SegmenterModel":
        return SegmenterModel(self.weights, self.bias, self.taxonomy)


def forward_scores(model: SegmenterModel, features: np.ndarray) -> np.ndarray:
    """Row-wise softmax of W f + b, stabilized by max subtraction."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != FEATURE_DIM:
        raise DimensionError(f"features are {features.shape}, model expects (*, {FEATURE_DIM})")
    logits = features @ model.weights.T + model.bias
    logits -= _narrow_reduce(np.maximum, logits, axis=1)[:, None]
    e = np.exp(logits)
    # numpy sums a row of fewer than eight in order, as the column adds do,
    # and a longer one pairwise
    total = _narrow_reduce(np.add, e, axis=1) if e.shape[1] < 8 else e.sum(axis=1)
    return e / total[:, None]


def cross_entropy(
    scores: np.ndarray,
    labels: np.ndarray,
    ignore_index: int = -1,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over non-ignored rows plus its gradient with
    respect to the pre-softmax logits ((S - onehot) / n on those rows,
    zero elsewhere). Probabilities are clamped at 1e-12. A label that is
    neither the ignore index nor a column of ``scores`` raises
    UnknownLabelError."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise DimensionError("scores and labels disagree on the point count")
    keep = labels != ignore_index
    valid = np.flatnonzero(keep)
    if len(valid) == 0:
        raise NoSupervisionError("every point is ignored")
    target = labels[valid]
    if target.min() < 0 or target.max() >= scores.shape[1]:
        bad = target[(target < 0) | (target >= scores.shape[1])][0]
        raise UnknownLabelError(bad, f"scores have {scores.shape[1]} classes")
    # one flat index into the row-major gradient serves the pick and the subtraction
    flat = valid * scores.shape[1] + target
    picked = scores.take(flat)
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad = scores.copy() if len(valid) == len(keep) else np.where(keep[:, None], scores, 0.0)
    grad.reshape(-1)[flat] -= 1.0
    grad /= len(valid)
    return loss, grad


def predict_labels(model: SegmenterModel, cloud: LabeledPointCloud, config: FeatureConfig) -> np.ndarray:
    return forward_scores(model, extract_features(cloud, config)).argmax(axis=1)


def pseudo_label(model: SegmenterModel, cloud: LabeledPointCloud, feature_config: FeatureConfig,
                 pseudo_config: PseudoLabelConfig) -> np.ndarray:
    """``model``'s predictions for ``cloud`` where they pass the confidence
    filter of ``pseudo_config``, the ignore index elsewhere."""
    return _pseudo_label(model, cloud, neighbour_stats(cloud, feature_config), pseudo_config)


def _pseudo_label(model, cloud, stats, pseudo_config):
    """``pseudo_label`` from the ``neighbour_stats`` of ``cloud``."""
    scores = forward_scores(model, _pair_features(cloud, stats))
    return generate_pseudo_labels(scores, pseudo_config, cloud.taxonomy.ignore_index)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings shared by both training stages."""

    learning_rate: float = 0.02
    iterations: int = 200
    batch_size: int = 2          # pretraining: scenes per step
    source_loss_weight: float = 0.5   # trade-off on the source term in self-training
    momentum: float = 0.0
    lr_decay_power: float = 0.0  # polynomial decay exponent; 0 keeps lr constant
    regen_every: int = 0         # self-training: refresh pseudo labels every N steps (0 = never)

    def __post_init__(self):
        _check_finite_floats(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.source_loss_weight < 0:
            raise ValueError("source_loss_weight must be >= 0")
        if self.momentum < 0:
            raise ValueError("momentum must be >= 0")
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
    """Gradient step with momentum and polynomial lr decay. Momentum 0 and
    decay 0 give the plain step bit for bit: ``x ** 0.0 == 1.0``, and the
    sign of a zero in the velocity moves no weight but a -0.0 one, which
    descent never makes from a model that holds none."""

    def __init__(self, model: SegmenterModel, config: TrainConfig):
        self.model = model.copy()
        self.base_lr = config.learning_rate
        self.momentum = config.momentum
        self.decay = config.lr_decay_power
        self.total = max(config.iterations, 1)
        self.t = 0
        self.velocity = np.zeros_like(self.model.params)

    def step(self, grad):
        lr = self.base_lr * (1.0 - self.t / self.total) ** self.decay
        self.t += 1
        self.velocity = self.momentum * self.velocity + grad
        self.model.params -= lr * self.velocity


def _scene_gradient(model, cloud, features):
    """The cross-entropy of ``model`` on ``cloud`` and its gradient with
    respect to ``model.params``."""
    scores = forward_scores(model, features)
    loss, grad_logits = cross_entropy(scores, cloud.labels, cloud.taxonomy.ignore_index)
    return loss, SegmenterModel._join(grad_logits.T @ features, grad_logits.sum(axis=0))


def _gradients(model, batch, feature_config, candidates_of):
    """``_scene_gradient`` of each submitted (cloud, reuse) pair, in order,
    each cloud's features computed just before its gradient, so a failure
    surfaces where the plain loop would meet it."""
    for cloud, reuse in batch:
        if reuse is None:
            features = extract_features(cloud, feature_config)
        else:
            i, source = reuse
            features = _reused_features(cloud, feature_config, candidates_of(i), source)
        yield _scene_gradient(model, cloud, features)


# Relative rounding slack on the candidate radius: a rigid motion of the
# cloud moves a pair's computed distance by a few ulps of the coordinates.
_ROUNDING_SLACK = 1e-9


def _pair_margin(scan_config, augment_config):
    """How much longer a draw can make a pair than it is in the clean
    scene, or None when elastic distortion leaves that unbounded. Scan and
    augment jitter move each coordinate by at most ``delta_p`` and
    ``jitter_range``, so a pair by at most 2 * sqrt(3) times their sum;
    rotation and flips are rigid, and shuffling moves no point."""
    jitter = 0.0 if scan_config is None else scan_config.delta_p
    if augment_config is not None:
        if augment_config.elastic:
            return None
        if augment_config.jitter:
            jitter += augment_config.jitter_range
    return 2.0 * np.sqrt(3.0) * jitter


def _candidates(pos, radius):
    """The pairs of the points ``pos`` within ``radius`` plus the rounding
    slack, as (a, b, n): the pairs (a[k], b[k]) with a[k] < b[k], in
    ascending order of a, of the n points, stored in the narrowest unsigned
    type that holds an index."""
    slack = _ROUNDING_SLACK * (1.0 + float(np.abs(pos).max(initial=0.0)))
    pairs = _pairs_within(pos, radius + slack)
    dtype = np.min_scalar_type(max(len(pos) - 1, 0))
    order = np.argsort(pairs[:, 0])
    return pairs[order, 0].astype(dtype), pairs[order, 1].astype(dtype), len(pos)


def _reused_features(cloud, config, candidates, source):
    """``extract_features(cloud, config)`` of a draw from a clean scene,
    from that scene's ``_candidates``, found with a radius of at least
    ``config.radius`` plus the draw's ``_pair_margin``.
    Draw point j is clean point ``source[j]``.

    The draw's positions are put back in the clean scene's order, NaN where
    the scan dropped a point, and the candidates are kept where they pass
    cKDTree's own distance test, which a pair with a dropped end fails. So
    the pairs are those ``query_pairs(config.radius)`` finds, and the
    features are the same bytes."""
    a, b, n = candidates
    coords = np.full((3, n), np.nan)
    coords[:, source] = cloud.positions.T
    # the sum runs from 0.0 through x, y, z
    dist2 = np.zeros(len(a))
    for coord in coords:
        d = coord.take(a)
        d -= coord.take(b)
        d *= d
        dist2 += d
    near = np.flatnonzero(dist2 <= config.radius * config.radius)
    # the kept pairs as intp, on which ufunc.at takes its fast path
    a, b = a.take(near).astype(np.intp), b.take(near).astype(np.intp)
    stats = _neighbour_stats(coords[2], a, b, config.voxel_size)
    return _pair_features(cloud, [stat.take(source) for stat in stats])


class _ChildTraceback(Exception):
    """A child's formatted traceback, the cause of the error it sent."""


class _Child:
    """A process forked to run ``loop(conn, *args)``, and this end of its
    pipe; the package starts no process another way. The loop replies with
    ``conn.send((None, reply))`` and ends when this end closes; any error
    that ends it is raised by ``receive``, and so is its death."""

    def __init__(self, name, loop, *args):
        import multiprocessing  # only here: see the class docstring
        fork = multiprocessing.get_context("fork")
        self.conn, child_end = fork.Pipe()
        with child_end:
            self.process = fork.Process(target=self._main, args=(child_end, loop, args), name=name)
            try:
                self.process.start()
            except BaseException:
                self.conn.close()
                raise

    def _main(self, conn, loop, args):
        self.conn.close()  # so that the parent closing its end ends the loop
        try:
            loop(conn, *args)
        except BaseException as exc:
            trace = "".join(traceback.format_exception(exc))
            try:
                conn.send((exc, trace))
            except Exception:
                # an error that does not pickle still reaches the parent, typed
                conn.send((TrainerError(f"{type(exc).__name__}: {exc}"), trace))
        finally:
            os._exit(0)  # running none of the exit handlers inherited from the parent

    def _died(self):
        self.process.join()
        name, code = self.process.name, self.process.exitcode
        raise TrainerError(f"the {name} process exited with code {code} before it replied") from None

    def send(self, message):
        try:
            self.conn.send(message)
        except Exception:
            if self.process.is_alive():
                raise
            self._died()

    def receive(self):
        """The child's next reply; an error it sent is raised here."""
        try:
            error, reply = self.conn.recv()
        except EOFError:
            self._died()
        if error is not None:
            raise error from _ChildTraceback(reply)
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.conn.close()  # the child's loop stops at the end of its pipe
        self.process.join()
        self.process.close()


# The batch map's first size; it doubles, or grows to the batch, when a
# batch does not fit. Pages are allocated only where a batch is written.
_MAP_BYTES = 1 << 20
# Each array starts on a cache line of the map.
_ALIGN = 64


def _batch_of(view, layout):
    # the (cloud, reuse) pairs of a batch from their arrays in ``view``, as
    # the caller's ``_Trainer.send`` laid them out; the caller built and
    # checked the clouds, so they are rebuilt as unpickling would, unchecked
    def array(entry):
        if entry is None:
            return None
        dtype, shape, offset = entry
        return np.ndarray(shape, dtype, buffer=view, offset=offset)

    batch = []
    for scene, taxonomy, entries in layout:
        positions, labels, source = map(array, entries)
        cloud = object.__new__(LabeledPointCloud)
        cloud.__dict__.update(positions=positions, labels=labels, taxonomy=taxonomy)
        batch.append((cloud, None if scene is None else (scene, source)))
    return batch


def _trainer(conn, fd, opt, weights, norm, feature_config, candidates_of):
    # The trainer process's loop: each message is an iteration's batch and
    # whether it is whole; a whole batch is stepped and answered with the
    # loss and the stepped model, a partial one (its draw failed) only has
    # its gradients taken. The batch's arrays are read-only views of the
    # map ``fd``, which the caller rewrites only after the answer.
    view = None
    try:
        while True:
            it, whole, size, layout = conn.recv()
            if view is None or len(view) != size:
                view = mmap.mmap(fd, size, prot=mmap.PROT_READ)
            batch = _batch_of(view, layout)
            grads = _gradients(opt.model, batch, feature_config, candidates_of)
            reply = None
            if whole:
                grad = np.zeros_like(opt.model.params)
                total = 0.0
                for weight, (loss, g) in zip(weights, grads):
                    grad += weight * g
                    total += weight * loss
                total /= norm
                if not np.isfinite(total):
                    raise DivergenceError(f"non-finite loss at iteration {it}")
                opt.step(grad / norm)
                reply = (total, opt.model.params)
            else:
                for _ in grads:
                    pass
            conn.send((None, reply))
    except EOFError:
        pass


class _Trainer(_Child):
    """A trainer process (see ``_trainer``) and the shared memory map that
    carries each batch's arrays, created before the fork."""

    def __init__(self, *args):
        self.fd = os.memfd_create("scanmix-batch")
        self.map = None
        try:
            os.ftruncate(self.fd, _MAP_BYTES)
            self.map = mmap.mmap(self.fd, _MAP_BYTES)
            super().__init__("scanmix-trainer", _trainer, self.fd, *args)
        except BaseException:
            self._close_map()
            raise

    def send(self, it, batch, whole):
        """Copy the arrays of ``batch`` into the map, growing it first if
        they do not fit, and send the trainer their layout."""
        layout, arrays, end = [], [], 0
        for cloud, reuse in batch:
            scene, source = (None, None) if reuse is None else reuse
            entries = []
            for a in (cloud.positions, cloud.labels, source):
                if a is None:
                    entries.append(None)
                    continue
                entries.append((a.dtype.str, a.shape, end))
                arrays.append((a, end))
                end += -(-a.nbytes // _ALIGN) * _ALIGN
            layout.append((scene, cloud.taxonomy, entries))
        if end > len(self.map):
            size = max(end, 2 * len(self.map))
            os.ftruncate(self.fd, size)
            grown = mmap.mmap(self.fd, size)
            self.map.close()
            self.map = grown
        for a, offset in arrays:
            np.ndarray(a.shape, a.dtype, buffer=self.map, offset=offset)[...] = a
        super().send((it, whole, len(self.map), layout))

    def __exit__(self, *exc):
        try:
            super().__exit__(*exc)
        finally:
            self._close_map()

    def _close_map(self):
        if self.map is not None:
            self.map.close()
        os.close(self.fd)


def _train(model, train_config, feature_config, weights, norm, draw, candidates_of=None):
    """Descend on (sum of weights[i] * CE_i) / norm, in a trainer process
    one iteration behind the draws.

    ``draw(it, submit, model)`` takes every random draw of iteration ``it``
    in this process and passes each finished cloud to ``submit``; CE_i is
    the i-th submitted cloud's cross-entropy, summed in that order.
    ``submit(cloud, reuse)`` with ``reuse = (i, source)``, where cloud
    point j is point ``source[j]`` of scene i, has the trainer compute the
    features by ``_reused_features`` from ``candidates_of(i)`` instead of
    a fresh neighbour search. ``model()`` waits for the pending step and
    returns the stepped model; a draw that reads the model, or must not
    run ahead of a step that fails, calls it before its first submit.

    The trainer is forked at the start of each call, so it inherits the
    scenes and ``candidates_of``, whose tables it fills itself. It computes
    the features, gradients and descent steps; this process keeps every
    random draw. Iteration t is drawn here while the trainer works on t-1;
    then this process waits for t-1's step, which sends back the stepped
    model, and sends t. Features are pure, and draws and steps keep their
    order, so the result is that of the plain loop.

    What crosses the pipe is small and does not grow with the clouds: the
    iteration, whether the batch is whole, the size of a shared memory map
    created before the fork, and per cloud its scene index (None for a
    fresh search), its taxonomy and a (dtype, shape, offset) entry for each
    of its positions, labels and clean indices. The arrays themselves are
    copied into the map, which this process grows when a batch does not
    fit; the trainer reads them in place and this process rewrites the map
    only after the trainer has answered.

    Errors come out in the plain loop's order: when the draw of t fails,
    t-1 is stepped first, then the gradients of the clouds t had already
    drawn, and only then is the draw's error re-raised. Every path joins
    the trainer and closes the map.
    """
    if train_config.iterations == 0:
        return TrainResult(model, np.zeros(0))
    losses = np.zeros(train_config.iterations)
    current = model.copy()
    pending = None

    def stepped():
        nonlocal pending
        if pending is not None:
            it, pending = pending, None
            losses[it], current.params = trainer.receive()
        return current

    opt = _Descent(model, train_config)
    with _Trainer(opt, weights, norm, feature_config, candidates_of) as trainer:
        for it in range(train_config.iterations):
            batch = []
            try:
                draw(it, lambda cloud, reuse=None: batch.append((cloud, reuse)), stepped)
            except Exception:
                stepped()
                if batch:
                    trainer.send(it, batch, False)
                    trainer.receive()
                raise
            stepped()
            trainer.send(it, batch, True)
            pending = it
        stepped()
    return TrainResult(current, losses)


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
    mean cross-entropy. Zero iterations return the model unchanged. The
    features, gradients and steps run in a forked trainer process one
    iteration behind the draws; the result is that of a plain loop.
    """
    if not scenes:
        raise EmptyInputError("no source scenes")
    # A scene's scan plan and candidate pairs are built on its first draw, so
    # an unscannable scene fails at the same draw, and no random draw moves.
    plan_of = cache(lambda i: plan_scan(scenes[i], scan_config, structural))
    margin = _pair_margin(scan_config, augment_config)
    candidates_of = None if margin is None else cache(
        lambda i: _candidates(scenes[i].positions, feature_config.radius + margin)
    )
    batch_size = train_config.batch_size

    def draw(it, submit, model):
        for si in rng.integers(0, len(scenes), size=batch_size):
            si = int(si)
            scene = scenes[si]
            if scan_config is None:
                source = np.arange(scene.n)
            else:
                scene, source = _scan_and_jitter(scene, scan_config, structural, rng, plan_of(si))
            scene, perm = _standard_augment(scene, augment_config, rng)
            if margin is None:
                submit(scene)
            else:
                submit(scene, (si, source if perm is None else source[perm]))

    return _train(model, train_config, feature_config, [1.0] * batch_size, batch_size, draw,
                  candidates_of)


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
    pseudo_config: PseudoLabelConfig,
    on_mixed: Callable[[int, LabeledPointCloud], None] | None = None,
) -> TrainResult:
    """Self-training on pseudo-labeled target scenes plus source scenes.

    ``target_scenes`` carry pseudo labels (ignore where filtered). Each
    iteration draws one target and one source scene, scan-augments the
    source, composes the mixed scene through the shared tail queue, and
    steps on CE(mixed) + source_loss_weight * CE(augmented source).
    ``on_mixed(it, cloud)`` sees each mixed scene just before its gradient.

    With ``train_config.regen_every > 0`` the pseudo labels (and class
    ratios) are refreshed from the current model through ``pseudo_config``
    every that many iterations; ``regen_every == 0`` keeps the initial
    labels. A refresh changes labels only, so each target's
    ``neighbour_stats`` are computed at the first refresh and kept.
    As in ``train_pretrain``, a trainer process steps one iteration behind
    the draws; a refresh and ``on_mixed`` first wait for the pending
    iteration's step.
    """
    if not source_scenes or not target_scenes:
        raise EmptyInputError("self-training needs source and target scenes")
    taxonomy = target_scenes[0].taxonomy
    target_scenes = list(target_scenes)
    ratios = class_ratio(
        np.concatenate([s.labels for s in target_scenes]), taxonomy
    )
    queue = TailCuboidQueue(mix_config.queue_cap)
    plan_of = cache(lambda i: plan_scan(source_scenes[i], scan_config, structural))
    radius = feature_config.radius + _pair_margin(scan_config, None)
    candidates_of = cache(lambda i: _candidates(source_scenes[i].positions, radius))
    stats_of = cache(lambda i: neighbour_stats(target_scenes[i], feature_config))
    every = train_config.regen_every

    def draw(it, submit, model):
        nonlocal target_scenes, ratios
        if every > 0 and it > 0 and it % every == 0:
            current = model()
            target_scenes = [
                t.with_labels(_pseudo_label(current, t, stats_of(i), pseudo_config))
                for i, t in enumerate(target_scenes)
            ]
            ratios = class_ratio(
                np.concatenate([s.labels for s in target_scenes]), taxonomy
            )
        tgt = target_scenes[int(rng.integers(0, len(target_scenes)))]
        si = int(rng.integers(0, len(source_scenes)))
        src, source = _scan_and_jitter(source_scenes[si], scan_config, structural, rng, plan_of(si))
        mixed = compose_mixed_scene(src, tgt, ratios, mix_config, queue, rng).mixed.cloud
        if on_mixed is not None:
            model()
            on_mixed(it, mixed)
        submit(mixed)
        submit(src, (si, source))

    weights = [1.0, train_config.source_loss_weight]
    return _train(model, train_config, feature_config, weights, 1, draw, candidates_of)


def save_checkpoint(model: SegmenterModel, path) -> None:
    """One ascii header line (d, c, taxonomy name) followed by the model's
    ``params`` as little-endian float64."""
    header = (FEATURE_DIM, model.taxonomy.count, model.taxonomy.name)
    _write_headed(path, _CHECKPOINT_HEADER, header, model.params.astype("<f8").tobytes())


def load_checkpoint(path, taxonomy: ClassTaxonomy) -> SegmenterModel:
    path = Path(path)
    (d, c, name), payload, offset = _read_headed(path, _CHECKPOINT_HEADER, "checkpoint")
    try:
        d, c = int(d), int(c)
    except ValueError as exc:
        raise ParseError(path, f"bad header value: {exc}", line=1) from exc
    if d != FEATURE_DIM:
        raise ParseError(path, f"checkpoint has {d} feature columns, features have {FEATURE_DIM}")
    if c != taxonomy.count:
        raise ParseError(path, f"checkpoint has {c} classes, taxonomy {taxonomy.count}")
    if name != taxonomy.name:
        raise ParseError(path, f"checkpoint taxonomy {name!r} != {taxonomy.name!r}")
    need = (c * d + c) * 8
    if len(payload) != need:
        raise ParseError(path, f"expected {need} payload bytes, found {len(payload)}")
    params = np.frombuffer(payload, dtype="<f8")
    try:
        return SegmenterModel(*SegmenterModel._split(params, c), taxonomy)
    except DimensionError as exc:
        raise ParseError(path, str(exc), offset=offset) from None


def _positions_digest(cloud):
    return hashlib.sha256(np.ascontiguousarray(cloud.positions, dtype="<f8")).hexdigest()


def _write_stats(path, cloud, config, stats) -> None:
    """Write the ``neighbour_stats`` of ``cloud`` under ``config``: one
    ascii ``_STATS_HEADER`` line (floats by ``repr``), then each statistic
    as a column of its ``_STATS_DTYPES``."""
    header = (_STATS_HOLDS, cloud.n, repr(config.radius), repr(config.voxel_size), _positions_digest(cloud))
    payload = b"".join(stat.astype(dtype).tobytes() for stat, dtype in zip(stats, _STATS_DTYPES))
    _write_headed(path, _STATS_HEADER, header, payload)


def _read_stats(path, cloud, config):
    """The ``neighbour_stats`` of ``cloud`` under ``config`` that
    ``_write_stats`` wrote at ``path``; None when no file is there, or when
    it holds other statistics, or those of another cloud or config.
    ParseError when the file is malformed: a header that does not parse, a
    payload of the wrong size, a count outside [1, n], a planar count
    outside [1, count], or a z extent that is negative or not finite."""
    if not _exists(path):
        return None
    (holds, n, radius, voxel_size, digest), payload, offset = _read_headed(path, _STATS_HEADER, "statistics")
    try:
        source = (holds, int(n), float(radius), float(voxel_size))
    except ValueError as exc:
        raise ParseError(path, f"bad header value: {exc}", line=1) from exc
    if source != (_STATS_HOLDS, cloud.n, config.radius, config.voxel_size) or digest != _positions_digest(cloud):
        return None
    n = cloud.n
    need = sum(np.dtype(dtype).itemsize for dtype in _STATS_DTYPES) * n
    if len(payload) != need:
        raise ParseError(path, f"expected {need} payload bytes, found {len(payload)}")
    stats, start = [], 0
    for dtype in _STATS_DTYPES:
        stats.append(np.frombuffer(payload, dtype, n, start))
        start += stats[-1].nbytes
    count, z_ext, planar = stats
    start = offset
    for stat, bad, what in (
        (count, (count < 1) | (count > n), "neighbour count outside [1, n]"),
        (z_ext, ~np.isfinite(z_ext) | (z_ext < 0), "z extent negative or not finite"),
        (planar, (planar < 1) | (planar > count), "planar count outside [1, count]"),
    ):
        if bad.any():
            point = int(np.flatnonzero(bad)[0])
            raise ParseError(path, f"point {point}: {what}", offset=start + stat.itemsize * point)
        start += stat.nbytes
    return stats
