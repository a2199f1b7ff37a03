"""Cuboid scene mixing with tail-class oversampling.

Scenes are partitioned into a randomized grid of cuboids, optionally
spatially permuted, and mixed cell-by-cell between a source scene
(ground-truth labels) and a target scene (pseudo labels). Cuboids rich in
tail classes are kept in a FIFO queue and re-injected into mixed scenes
so rare classes stay represented during self-training.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import LabeledPointCloud, RandomStream
from .errors import DegeneratePartitionError, EmptyInputError, ShapeMismatchError

PROV_SOURCE, PROV_TARGET, PROV_QUEUE = 0, 1, 2
PROVENANCE_NAMES = ("source", "target", "queue")


@dataclass(frozen=True)
class CuboidMixConfig:
    """Partition shape, randomization strengths, and tail-queue knobs."""

    nx: int = 2
    ny: int = 2
    nz: int = 1
    delta_phi: float = 0.1       # boundary perturbation half-range, meters
    rho_s: float = 0.5           # per-scene permutation probability
    rho_m: float = 0.5           # per-cell mixing probability
    queue_cap: int = 256
    n_tail_classes: int = 2
    min_tail_cuboids: int = 2

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("partition counts must be >= 1")
        if not (0.0 <= self.rho_s <= 1.0 and 0.0 <= self.rho_m <= 1.0):
            raise ValueError("rho_s and rho_m must be in [0, 1]")
        if self.queue_cap < 0 or self.n_tail_classes < 0:
            raise ValueError("queue_cap and n_tail_classes must be >= 0")
        if self.min_tail_cuboids > self.nx * self.ny * self.nz:
            raise ValueError("min_tail_cuboids cannot exceed the cell count")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)


@dataclass
class Cuboid:
    """One grid cell's points. ``bounds`` is [xmin, ymin, zmin, xmax,
    ymax, zmax]; ``members`` indexes the owning cloud."""

    cell: tuple[int, int, int]
    bounds: np.ndarray
    members: np.ndarray
    provenance: int = PROV_SOURCE

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.bounds[:3] + self.bounds[3:])

    @property
    def size(self) -> np.ndarray:
        return self.bounds[3:] - self.bounds[:3]


@dataclass
class CuboidSet:
    """A partitioned scene: boundary arrays plus cuboids in cell order."""

    cloud: LabeledPointCloud
    xb: np.ndarray
    yb: np.ndarray
    zb: np.ndarray
    cuboids: list[Cuboid]

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.xb) - 1, len(self.yb) - 1, len(self.zb) - 1)

    def grid_cell_bounds(self, cell: tuple[int, int, int]) -> np.ndarray:
        i, j, k = cell
        return np.array(
            [self.xb[i], self.yb[j], self.zb[k], self.xb[i + 1], self.yb[j + 1], self.zb[k + 1]]
        )


@dataclass
class MixedScene:
    """Result of mixing: the composed cloud, its cuboids (bounds follow
    the cuboids that were moved in), and per-point provenance codes."""

    cloud: LabeledPointCloud
    cuboids: list[Cuboid]
    shape: tuple[int, int, int]
    point_provenance: np.ndarray


def _axis_boundaries(lo: float, hi: float, n: int, delta: float, rng: RandomStream) -> np.ndarray:
    """Equal divisions with uniform perturbations on interior boundaries;
    endpoints are the exact extrema. Redraws (up to 64 times) if a draw
    breaks strict ordering. An extent too thin for ``delta`` (a scan that
    kept one wall patch, say) is perturbed by a quarter cell width instead,
    which keeps the boundaries ordered and draws as many uniforms; only a
    zero extent cannot be split."""
    if n == 1:
        return np.array([lo, hi], dtype=np.float64)
    if not hi > lo:
        raise DegeneratePartitionError(f"zero extent cannot hold {n} partitions")
    if hi - lo <= 2.0 * delta * (n - 1):
        delta = 0.25 * (hi - lo) / n
    frac = np.arange(1, n) / n
    base = frac * hi + (1.0 - frac) * lo
    for _ in range(64):
        bounds = np.concatenate(([lo], base + rng.uniform(-delta, delta, n - 1), [hi]))
        if (np.diff(bounds) > 0).all():
            return bounds
    raise DegeneratePartitionError("could not draw strictly increasing boundaries")


def partition_cuboids(
    cloud: LabeledPointCloud,
    config: CuboidMixConfig,
    rng: RandomStream,
    provenance: int = PROV_SOURCE,
) -> CuboidSet:
    """Partition a scene into nx * ny * nz cuboids.

    Cells are half-open on the upper faces except the last cell per axis,
    so the member index sets are disjoint and exhaustive. Boundary draw
    order is x, then y, then z.
    """
    if cloud.n == 0:
        raise EmptyInputError("cannot partition an empty cloud")
    pos = cloud.positions
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
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
    return CuboidSet(cloud, xb, yb, zb, cuboids)


def _cells_in_order(shape) -> list[tuple[int, int, int]]:
    nx, ny, nz = shape
    return [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]


def permute_cuboids(cset: CuboidSet, rho_s: float, rng: RandomStream) -> CuboidSet:
    """With probability ``rho_s`` (one draw per scene), rigidly translate
    every cuboid so its bounds center lands on a uniformly permuted cell's
    grid center; otherwise return the set unchanged."""
    ncells = len(cset.cuboids)
    if rng.random() >= rho_s:
        return cset
    perm = rng.permutation(ncells)
    cells = _cells_in_order(cset.shape)
    positions = cset.cloud.positions.copy()
    new_cuboids: list[Cuboid | None] = [None] * ncells
    for pos_idx, cub in enumerate(cset.cuboids):
        dest = int(perm[pos_idx])
        dest_bounds = cset.grid_cell_bounds(cells[dest])
        shift = 0.5 * (dest_bounds[:3] + dest_bounds[3:]) - cub.center
        positions[cub.members] += shift
        moved = np.concatenate([cub.bounds[:3] + shift, cub.bounds[3:] + shift])
        new_cuboids[dest] = Cuboid(cells[dest], moved, cub.members, cub.provenance)
    cloud = cset.cloud.with_positions(positions)
    return CuboidSet(cloud, cset.xb, cset.yb, cset.zb, list(new_cuboids))


def mix_cuboids(
    source: CuboidSet,
    target: CuboidSet,
    rho_m: float,
    rng: RandomStream,
) -> MixedScene:
    """Start from the target scene; independently per cell with
    probability ``rho_m`` replace the target cuboid with the source cuboid
    of the same cell, translated so its bounds center lands on the target
    cell's grid center. Labels travel with their cuboids."""
    if source.shape != target.shape:
        raise ShapeMismatchError(f"partition shapes differ: {source.shape} vs {target.shape}")
    take_source = rng.random(len(target.cuboids)) < rho_m
    cells = _cells_in_order(target.shape)
    chunks_p, chunks_l, chunks_prov = [], [], []
    cuboids = []
    offset = 0
    for pos_idx, cell in enumerate(cells):
        tgt_bounds = target.grid_cell_bounds(cell)
        if take_source[pos_idx]:
            cub = source.cuboids[pos_idx]
            shift = 0.5 * (tgt_bounds[:3] + tgt_bounds[3:]) - cub.center
            pts = source.cloud.positions[cub.members] + shift
            labs = source.cloud.labels[cub.members]
            bounds = np.concatenate([cub.bounds[:3] + shift, cub.bounds[3:] + shift])
            prov = PROV_SOURCE
        else:
            cub = target.cuboids[pos_idx]
            pts = target.cloud.positions[cub.members]
            labs = target.cloud.labels[cub.members]
            bounds = cub.bounds.copy()
            prov = PROV_TARGET
        chunks_p.append(pts)
        chunks_l.append(labs)
        chunks_prov.append(np.full(len(pts), prov, dtype=np.int8))
        cuboids.append(
            Cuboid(cell, bounds, offset + np.arange(len(pts), dtype=np.int64), prov)
        )
        offset += len(pts)
    cloud = LabeledPointCloud(
        np.concatenate(chunks_p) if chunks_p else np.zeros((0, 3)),
        np.concatenate(chunks_l) if chunks_l else np.zeros(0, dtype=np.int64),
        target.cloud.taxonomy,
    )
    return MixedScene(cloud, cuboids, target.shape, np.concatenate(chunks_prov))


def tail_classes_of(ratios: np.ndarray, n_tail: int) -> np.ndarray:
    """The ``n_tail`` classes with the smallest positive ratio, ties broken
    by lower class index. Clamped to the number of positive-ratio classes."""
    ratios = np.asarray(ratios, dtype=np.float64)
    positive = np.flatnonzero(ratios > 0)
    order = positive[np.lexsort((positive, ratios[positive]))]
    return order[: min(n_tail, len(order))]


def classify_tail_cuboids(scene, ratios: np.ndarray, n_tail: int) -> np.ndarray:
    """Flag cuboids whose own labeled-point fraction of some tail class
    strictly exceeds that class's dataset ratio. ``scene`` is any object
    with ``cloud`` and ``cuboids`` attributes."""
    tails = tail_classes_of(ratios, n_tail)
    labels = scene.cloud.labels
    ignore = scene.cloud.taxonomy.ignore_index
    flags = np.zeros(len(scene.cuboids), dtype=bool)
    if len(tails) == 0:
        return flags
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


@dataclass(frozen=True)
class QueuedCuboid:
    """A tail cuboid stored in a canonical frame (min corner at origin)."""

    positions: np.ndarray
    labels: np.ndarray
    size: np.ndarray


class TailCuboidQueue:
    """Bounded FIFO of tail cuboids; eviction order equals insertion order."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: deque[QueuedCuboid] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: QueuedCuboid) -> None:
        self._entries.append(entry)

    def entries(self) -> list[QueuedCuboid]:
        return list(self._entries)

    def get(self, index: int) -> QueuedCuboid:
        return self._entries[index]


def update_tail_queue(queue: TailCuboidQueue, cset, flags: np.ndarray) -> TailCuboidQueue:
    """Append deep copies of the flagged cuboids (translated to the
    canonical frame) in cell order; oldest entries fall out first."""
    labels = cset.cloud.labels
    positions = cset.cloud.positions
    for cub, flagged in zip(cset.cuboids, flags):
        if not flagged:
            continue
        queue.push(
            QueuedCuboid(
                positions[cub.members] - cub.bounds[:3],
                labels[cub.members].copy(),
                cub.size.copy(),
            )
        )
    return queue


@dataclass
class ComposeResult:
    mixed: MixedScene
    queue: TailCuboidQueue
    tail_flags: np.ndarray       # flags after any queue injection
    injected_cells: list[int]    # cell-order positions replaced from the queue


def _inject_queue_cuboids(mixed: MixedScene, flags, queue, need, rng):
    """Replace uniformly chosen non-tail cells with queue cuboids until
    ``need`` more tail cuboids are present or no candidate remains. Queue
    draws are distinct when the queue is large enough, otherwise repeats
    are allowed."""
    nontail = np.flatnonzero(~flags)
    k = min(need, len(nontail))
    if k <= 0 or len(queue) == 0:
        return mixed, flags, []
    chosen = nontail[rng.choice(len(nontail), size=k, replace=False)]
    picks = rng.choice(len(queue), size=k, replace=len(queue) < k)

    chunks_p, chunks_l, chunks_prov = [], [], []
    cuboids = []
    offset = 0
    flags = flags.copy()
    replace_with = {int(c): queue.get(int(q)) for c, q in zip(chosen, picks)}
    for pos_idx, cub in enumerate(mixed.cuboids):
        if pos_idx in replace_with:
            entry = replace_with[pos_idx]
            cell_bounds_center = cub.center  # center of whatever occupied the cell
            origin = cell_bounds_center - 0.5 * entry.size
            pts = entry.positions + origin
            labs = entry.labels
            bounds = np.concatenate([origin, origin + entry.size])
            prov = PROV_QUEUE
            flags[pos_idx] = True
        else:
            pts = mixed.cloud.positions[cub.members]
            labs = mixed.cloud.labels[cub.members]
            bounds = cub.bounds
            prov = cub.provenance
        chunks_p.append(pts)
        chunks_l.append(labs)
        chunks_prov.append(np.full(len(pts), prov, dtype=np.int8))
        cuboids.append(Cuboid(cub.cell, bounds, offset + np.arange(len(pts), dtype=np.int64), prov))
        offset += len(pts)
    cloud = LabeledPointCloud(
        np.concatenate(chunks_p), np.concatenate(chunks_l), mixed.cloud.taxonomy
    )
    out = MixedScene(cloud, cuboids, mixed.shape, np.concatenate(chunks_prov))
    return out, flags, sorted(replace_with)


def compose_mixed_scene(
    source: LabeledPointCloud,
    target: LabeledPointCloud,
    ratios: np.ndarray,
    config: CuboidMixConfig,
    queue: TailCuboidQueue,
    rng: RandomStream,
) -> ComposeResult:
    """Full mixing step for one (source, target) scene pair.

    Partitions both scenes, permutes each with probability ``rho_s``,
    mixes cells with probability ``rho_m``, injects queue cuboids into
    non-tail cells until ``min_tail_cuboids`` tail cuboids are present
    (queue permitting), and finally enqueues the target scene's tail
    cuboids. Draw order: source partition, target partition, source
    permute, target permute, mix, injection.
    """
    src_set = partition_cuboids(source, config, rng, provenance=PROV_SOURCE)
    tgt_set = partition_cuboids(target, config, rng, provenance=PROV_TARGET)
    src_set = permute_cuboids(src_set, config.rho_s, rng)
    tgt_set = permute_cuboids(tgt_set, config.rho_s, rng)
    mixed = mix_cuboids(src_set, tgt_set, config.rho_m, rng)

    flags = classify_tail_cuboids(mixed, ratios, config.n_tail_classes)
    injected: list[int] = []
    need = config.min_tail_cuboids - int(flags.sum())
    if need > 0 and len(queue) > 0:
        mixed, flags, injected = _inject_queue_cuboids(mixed, flags, queue, need, rng)

    tgt_flags = classify_tail_cuboids(tgt_set, ratios, config.n_tail_classes)
    queue = update_tail_queue(queue, tgt_set, tgt_flags)
    return ComposeResult(mixed, queue, flags, injected)
