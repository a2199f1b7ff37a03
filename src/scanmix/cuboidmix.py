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

from .core import LabeledPointCloud, RandomStream, _narrow_reduce
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
        if not (np.isfinite(self.delta_phi) and self.delta_phi >= 0):
            raise ValueError("delta_phi must be finite and >= 0")
        if not (0.0 <= self.rho_s <= 1.0 and 0.0 <= self.rho_m <= 1.0):
            raise ValueError("rho_s and rho_m must be in [0, 1]")
        if min(self.queue_cap, self.n_tail_classes, self.min_tail_cuboids) < 0:
            raise ValueError("queue_cap, n_tail_classes and min_tail_cuboids must be >= 0")
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
    """A partitioned scene: boundary arrays plus cuboids in cell order. A
    mixed scene is one too, over the target's grid; its cuboids' bounds
    follow the cuboids that were moved in."""

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
    lo = _narrow_reduce(np.minimum, pos)
    hi = _narrow_reduce(np.maximum, pos)
    xb = _axis_boundaries(lo[0], hi[0], config.nx, config.delta_phi, rng)
    yb = _axis_boundaries(lo[1], hi[1], config.ny, config.delta_phi, rng)
    zb = _axis_boundaries(lo[2], hi[2], config.nz, config.delta_phi, rng)

    ix = np.searchsorted(xb[1:-1], pos[:, 0], side="right")
    iy = np.searchsorted(yb[1:-1], pos[:, 1], side="right")
    iz = np.searchsorted(zb[1:-1], pos[:, 2], side="right")
    # a stable sort by flat cell id (cell order) keeps each cell's members ascending
    cell_id = (ix * config.ny + iy) * config.nz + iz
    counts = np.bincount(cell_id, minlength=config.nx * config.ny * config.nz)
    members = np.split(np.argsort(cell_id, kind="stable"), np.cumsum(counts)[:-1])

    cset = CuboidSet(cloud, xb, yb, zb, [])
    cset.cuboids = [
        Cuboid(cell, cset.grid_cell_bounds(cell), m, provenance)
        for cell, m in zip(_cells_in_order(config.shape), members)
    ]
    return cset


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


def _mix(
    source: CuboidSet, target: CuboidSet, take_source, injected: dict[int, QueuedCuboid]
) -> CuboidSet:
    """Fill each cell of the target grid with its occupant: the target
    cuboid, or where ``take_source`` the source cuboid of the same cell
    translated so its bounds center lands on the target cell's grid center.
    A queue entry ``injected[c]`` replaces the occupant of cell ``c``,
    centered where the occupant's bounds were centered."""
    chunks_p, chunks_l, cuboids = [], [], []
    offset = 0
    for c, cell in enumerate(_cells_in_order(target.shape)):
        if take_source[c]:
            cub, cloud, prov = source.cuboids[c], source.cloud, PROV_SOURCE
            grid = target.grid_cell_bounds(cell)
            shift = 0.5 * (grid[:3] + grid[3:]) - cub.center
            bounds = np.concatenate([cub.bounds[:3] + shift, cub.bounds[3:] + shift])
        else:
            cub, cloud, prov = target.cuboids[c], target.cloud, PROV_TARGET
            bounds = cub.bounds.copy()
        if c in injected:
            entry = injected[c]
            origin = 0.5 * (bounds[:3] + bounds[3:]) - 0.5 * entry.size
            pts, labs, prov = entry.positions + origin, entry.labels, PROV_QUEUE
            bounds = np.concatenate([origin, origin + entry.size])
        else:
            pts, labs = cloud.positions[cub.members], cloud.labels[cub.members]
            if take_source[c]:
                pts = pts + shift
        chunks_p.append(pts)
        chunks_l.append(labs)
        members = np.arange(offset, offset + len(pts), dtype=np.int64)
        cuboids.append(Cuboid(cell, bounds, members, prov))
        offset += len(pts)
    cloud = LabeledPointCloud(
        np.concatenate(chunks_p), np.concatenate(chunks_l), target.cloud.taxonomy
    )
    return CuboidSet(cloud, target.xb, target.yb, target.zb, cuboids)


def mix_cuboids(
    source: CuboidSet,
    target: CuboidSet,
    rho_m: float,
    rng: RandomStream,
) -> CuboidSet:
    """Start from the target scene; independently per cell with
    probability ``rho_m`` replace the target cuboid with the source cuboid
    of the same cell, translated so its bounds center lands on the target
    cell's grid center. Labels travel with their cuboids."""
    if source.shape != target.shape:
        raise ShapeMismatchError(f"partition shapes differ: {source.shape} vs {target.shape}")
    return _mix(source, target, rng.random(len(target.cuboids)) < rho_m, {})


def tail_classes_of(ratios: np.ndarray, n_tail: int) -> np.ndarray:
    """The ``n_tail`` classes with the smallest positive ratio, ties broken
    by lower class index. Clamped to the number of positive-ratio classes."""
    ratios = np.asarray(ratios, dtype=np.float64)
    positive = np.flatnonzero(ratios > 0)
    order = positive[np.lexsort((positive, ratios[positive]))]
    return order[: min(n_tail, len(order))]


def classify_tail_cuboids(scene: CuboidSet, ratios: np.ndarray, n_tail: int) -> np.ndarray:
    """Flag cuboids whose own labeled-point fraction of some tail class
    strictly exceeds that class's dataset ratio."""
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


def update_tail_queue(queue: TailCuboidQueue, cset: CuboidSet, flags: np.ndarray) -> None:
    """Append deep copies of the flagged cuboids (translated to the
    canonical frame) to ``queue`` in cell order; oldest entries fall out
    first."""
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


@dataclass
class ComposeResult:
    mixed: CuboidSet
    queue: TailCuboidQueue
    tail_flags: np.ndarray       # flags after any queue injection
    injected_cells: list[int]    # cell-order positions replaced from the queue


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
    uniformly chosen non-tail cells until ``min_tail_cuboids`` tail
    cuboids are present (queue and candidates permitting), builds the
    mixed scene once, and finally enqueues the target scene's tail
    cuboids. A mixed cell holds its donor cuboid's labels, so its tail
    flag is the donor's. Queue draws are distinct when the queue is large
    enough, otherwise repeats are allowed. Draw order: source partition,
    target partition, source permute, target permute, mix, injection.
    """
    src_set = partition_cuboids(source, config, rng, provenance=PROV_SOURCE)
    tgt_set = partition_cuboids(target, config, rng, provenance=PROV_TARGET)
    src_set = permute_cuboids(src_set, config.rho_s, rng)
    tgt_set = permute_cuboids(tgt_set, config.rho_s, rng)
    take_source = rng.random(len(tgt_set.cuboids)) < config.rho_m

    n_tail = config.n_tail_classes
    tgt_flags = classify_tail_cuboids(tgt_set, ratios, n_tail)
    flags = np.where(take_source, classify_tail_cuboids(src_set, ratios, n_tail), tgt_flags)
    nontail = np.flatnonzero(~flags)
    k = min(config.min_tail_cuboids - int(flags.sum()), len(nontail))
    injected: dict[int, QueuedCuboid] = {}
    if k > 0 and len(queue) > 0:
        chosen = nontail[rng.choice(len(nontail), size=k, replace=False)]
        picks = rng.choice(len(queue), size=k, replace=len(queue) < k)
        injected = {int(c): queue.get(int(q)) for c, q in zip(chosen, picks)}
        flags[chosen] = True
    mixed = _mix(src_set, tgt_set, take_source, injected)

    update_tail_queue(queue, tgt_set, tgt_flags)
    return ComposeResult(mixed, queue, flags, sorted(injected))
