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
from .errors import DegeneratePartitionError, DimensionError, EmptyInputError, ShapeMismatchError

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
    """A partitioned scene as arrays: the boundary arrays, each point's flat
    cell index ``cell`` ((i * ny + j) * nz + k, in the narrowest unsigned
    dtype that holds it), and per cell its ``bounds`` (ncells, 6) and
    ``provenance`` (ncells,). A mixed scene is one too, over the target's
    grid; its cells' bounds follow the cuboids that were moved in."""

    cloud: LabeledPointCloud
    xb: np.ndarray
    yb: np.ndarray
    zb: np.ndarray
    cell: np.ndarray
    bounds: np.ndarray
    provenance: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.xb) - 1, len(self.yb) - 1, len(self.zb) - 1)

    @property
    def cuboids(self) -> list[Cuboid]:
        """One ``Cuboid`` per cell in cell order, built from the arrays on
        each read."""
        order, offsets = _members(self.cell, len(self.bounds))
        return [
            Cuboid(cell, bounds, members, prov)
            for cell, bounds, members, prov in zip(
                np.ndindex(self.shape), self.bounds.copy(), np.split(order, offsets[1:-1]),
                self.provenance.tolist(),
            )
        ]


def _members(cell: np.ndarray, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    """Point indices grouped by cell in cell order, ascending int64 within
    each cell, and the (ncells + 1,) offsets of the groups."""
    order = np.argsort(cell, kind="stable").astype(np.int64, copy=False)
    offsets = np.zeros(ncells + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=ncells), out=offsets[1:])
    return order, offsets


def _cell_dtype(ncells: int):
    """The narrowest unsigned dtype that holds every cell index; numpy sorts
    8- and 16-bit keys stably by radix."""
    if ncells <= 1 << 8:
        return np.uint8
    return np.uint16 if ncells <= 1 << 16 else np.intp


def _grid_bounds(xb: np.ndarray, yb: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """(ncells, 6) grid bounds of every cell in cell order."""
    shape = (len(xb) - 1, len(yb) - 1, len(zb) - 1)
    i, j, k = np.unravel_index(np.arange(shape[0] * shape[1] * shape[2]), shape)
    return np.column_stack([xb[i], yb[j], zb[k], xb[i + 1], yb[j + 1], zb[k + 1]])


def _centers(bounds: np.ndarray) -> np.ndarray:
    return 0.5 * (bounds[:, :3] + bounds[:, 3:])


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
    so every point lies in exactly one cell. Boundary draw order is x, then
    y, then z.
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
    ncells = config.nx * config.ny * config.nz
    cell = ((ix * config.ny + iy) * config.nz + iz).astype(_cell_dtype(ncells))
    prov = np.full(ncells, provenance, dtype=np.int8)
    return CuboidSet(cloud, xb, yb, zb, cell, _grid_bounds(xb, yb, zb), prov)


def permute_cuboids(cset: CuboidSet, rho_s: float, rng: RandomStream) -> CuboidSet:
    """With probability ``rho_s`` (one draw per scene), rigidly translate
    every cuboid so its bounds center lands on a uniformly permuted cell's
    grid center; otherwise return the set unchanged."""
    ncells = len(cset.bounds)
    if rng.random() >= rho_s:
        return cset
    perm = rng.permutation(ncells)
    # row c: the shift that takes cell c's cuboid onto cell perm[c]'s grid center
    shift = _centers(_grid_bounds(cset.xb, cset.yb, cset.zb)[perm]) - _centers(cset.bounds)
    bounds = np.empty_like(cset.bounds)
    bounds[perm] = cset.bounds + np.tile(shift, 2)
    provenance = np.empty_like(cset.provenance)
    provenance[perm] = cset.provenance
    # take, not fancy indexing: numpy indexes with a narrow dtype slowly
    cloud = cset.cloud.with_positions(cset.cloud.positions + shift.take(cset.cell, axis=0))
    cell = perm.astype(cset.cell.dtype).take(cset.cell)
    return CuboidSet(cloud, cset.xb, cset.yb, cset.zb, cell, bounds, provenance)


def _check_taxonomies(source: LabeledPointCloud, target: LabeledPointCloud) -> None:
    if source.taxonomy != target.taxonomy:
        raise ShapeMismatchError(
            f"taxonomies differ: {source.taxonomy.name!r} vs {target.taxonomy.name!r}"
        )


def _mix(
    source: CuboidSet, target: CuboidSet, take_source: np.ndarray, injected: dict[int, QueuedCuboid]
) -> CuboidSet:
    """Fill each cell of the target grid with its occupant: the target
    cuboid, or where the boolean ``take_source`` is set the source cuboid
    of the same cell translated so its bounds center lands on the target
    cell's grid center.
    A queue entry ``injected[c]`` replaces the occupant of cell ``c``,
    centered where the occupant's bounds were centered."""
    shift = _centers(_grid_bounds(target.xb, target.yb, target.zb)) - _centers(source.bounds)
    bounds = np.where(take_source[:, None], source.bounds + np.tile(shift, 2), target.bounds)
    provenance = np.where(take_source, PROV_SOURCE, PROV_TARGET).astype(np.int8)
    from_queue = np.zeros(len(bounds), dtype=bool)
    from_queue[list(injected)] = True
    src = np.flatnonzero((take_source & ~from_queue).take(source.cell))
    tgt = np.flatnonzero((~take_source & ~from_queue).take(target.cell))
    src_cell, tgt_cell = source.cell.take(src), target.cell.take(tgt)
    chunks_p = [
        source.cloud.positions.take(src, axis=0) + shift.take(src_cell, axis=0),
        target.cloud.positions.take(tgt, axis=0),
    ]
    chunks_l = [source.cloud.labels.take(src), target.cloud.labels.take(tgt)]
    chunks_c = [src_cell, tgt_cell]
    for c, entry in injected.items():
        origin = _centers(bounds[c : c + 1])[0] - 0.5 * entry.size
        bounds[c] = np.concatenate([origin, origin + entry.size])
        provenance[c] = PROV_QUEUE
        chunks_p.append(entry.positions + origin)
        chunks_l.append(entry.labels)
        chunks_c.append(np.full(len(entry.labels), c, dtype=target.cell.dtype))
    # one occupant per cell, so a stable sort by cell keeps its points in order
    cell = np.concatenate(chunks_c)
    order = np.argsort(cell, kind="stable")
    cloud = LabeledPointCloud(
        np.concatenate(chunks_p).take(order, axis=0),
        np.concatenate(chunks_l).take(order),
        target.cloud.taxonomy,
    )
    return CuboidSet(cloud, target.xb, target.yb, target.zb, cell.take(order), bounds, provenance)


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
    _check_taxonomies(source.cloud, target.cloud)
    return _mix(source, target, rng.random(len(target.bounds)) < rho_m, {})


def tail_classes_of(ratios: np.ndarray, n_tail: int) -> np.ndarray:
    """The ``n_tail`` classes with the smallest positive ratio, ties broken
    by lower class index. Clamped to the number of positive-ratio classes."""
    ratios = np.asarray(ratios, dtype=np.float64)
    positive = np.flatnonzero(ratios > 0)
    order = positive[np.lexsort((positive, ratios[positive]))]
    return order[: min(n_tail, len(order))]


def _checked_ratios(ratios, taxonomy) -> np.ndarray:
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != (taxonomy.count,) or not np.isfinite(ratios).all():
        raise DimensionError(
            f"ratios must be a finite ({taxonomy.count},) vector, got shape {ratios.shape}"
        )
    return ratios


def classify_tail_cuboids(scene: CuboidSet, ratios: np.ndarray, n_tail: int) -> np.ndarray:
    """Flag cuboids whose own labeled-point fraction of some tail class
    strictly exceeds that class's dataset ratio."""
    taxonomy = scene.cloud.taxonomy
    ratios = _checked_ratios(ratios, taxonomy)
    tails = tail_classes_of(ratios, n_tail)
    ncells = len(scene.bounds)
    if len(tails) == 0:
        return np.zeros(ncells, dtype=bool)
    labels = scene.cloud.labels
    labeled = labels != taxonomy.ignore_index
    pairs = scene.cell[labeled].astype(np.intp) * taxonomy.count + labels[labeled]
    counts = np.bincount(pairs, minlength=ncells * taxonomy.count).reshape(ncells, taxonomy.count)
    # a float64 quotient of exact counts is Python's correctly rounded
    # int / int; a cell with no labeled point counts 0 of 1, which exceeds
    # no tail class's positive ratio
    total = np.maximum(counts.sum(axis=1), 1)
    return (counts[:, tails] / total[:, None] > ratios[tails]).any(axis=1)


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
    flagged = np.flatnonzero(flags)
    if len(flagged) == 0:
        return
    order, offsets = _members(cset.cell, len(cset.bounds))
    positions, labels = cset.cloud.positions, cset.cloud.labels
    for c in flagged:
        members = order[offsets[c] : offsets[c + 1]]
        lo, hi = cset.bounds[c, :3], cset.bounds[c, 3:]
        entry = QueuedCuboid(positions.take(members, axis=0) - lo, labels.take(members), hi - lo)
        queue.push(entry)


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
    Before the first draw, raises ShapeMismatchError if the two scenes'
    taxonomies differ and DimensionError unless ``ratios`` is a finite
    vector with one entry per class.
    """
    _check_taxonomies(source, target)
    _checked_ratios(ratios, target.taxonomy)
    src_set = partition_cuboids(source, config, rng, provenance=PROV_SOURCE)
    tgt_set = partition_cuboids(target, config, rng, provenance=PROV_TARGET)
    src_set = permute_cuboids(src_set, config.rho_s, rng)
    tgt_set = permute_cuboids(tgt_set, config.rho_s, rng)
    take_source = rng.random(len(tgt_set.bounds)) < config.rho_m

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
