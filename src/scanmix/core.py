"""Core types shared by every module: class taxonomies, labeled point
clouds, axis-aligned boxes, deterministic random streams, and the standard
training-time augmentations.

Conventions
-----------
Positions are ``(n, 3)`` float64 arrays in meters, z up. Labels are
``(n,)`` int64 arrays of class indices into a :class:`ClassTaxonomy`;
``taxonomy.ignore_index`` marks unlabeled points. All randomness flows
through :class:`RandomStream` so results are reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import EmptyInputError, UnknownLabelError

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Fixed 64-bit mixing step used to derive child stream seeds.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic random source: PCG64 behind an explicit 64-bit seed.

    Two streams built from equal seeds yield identical draw sequences on
    every platform (PCG64 is a fixed algorithm with fixed word width).
    ``child(tag)`` derives an independent stream through a documented
    64-bit mix, so per-scene work can run in parallel without sharing
    state.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: int) -> "RandomStream":
        """Independent derived stream; does not advance this one."""
        return RandomStream(_splitmix64(self.seed ^ _splitmix64(int(tag) & _MASK64)))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


@dataclass(frozen=True)
class ClassTaxonomy:
    """Ordered class names plus the reserved ignore sentinel. The name is
    one token of the ascii checkpoint and manifest headers, so it must be
    ascii without whitespace."""

    name: str
    names: tuple[str, ...]
    ignore_index: int = -1

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.name.isascii() or any(ch.isspace() for ch in self.name):
            raise ValueError(f"taxonomy name {self.name!r} must be ascii without whitespace")
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")
        if not self.names:
            raise ValueError("taxonomy needs at least one class")
        if 0 <= self.ignore_index < len(self.names):
            raise ValueError("ignore_index must not collide with a class index")

    @property
    def count(self) -> int:
        return len(self.names)

    def check_labels(self, labels: np.ndarray) -> None:
        """Raise UnknownLabelError if any non-ignore label is out of range."""
        valid = labels != self.ignore_index
        if valid.any():
            sub = labels[valid]
            bad = (sub < 0) | (sub >= self.count)
            if bad.any():
                raise UnknownLabelError(sub[bad][0], f"taxonomy {self.name!r}")


@dataclass(frozen=True)
class StructuralClasses:
    """Which class indices play the floor / ceiling / wall roles."""

    floor: int
    ceiling: int
    wall: int


@dataclass(frozen=True)
class LabeledPointCloud:
    """Positions plus per-point class labels under one taxonomy."""

    positions: np.ndarray
    labels: np.ndarray
    taxonomy: ClassTaxonomy

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        lab = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {pos.shape}")
        if lab.shape != (pos.shape[0],):
            raise ValueError("labels length must match positions")
        if pos.size and not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        self.taxonomy.check_labels(lab)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def __len__(self) -> int:
        return self.n

    def select(self, index) -> "LabeledPointCloud":
        """Subset by boolean mask or index array; order follows the index."""
        return LabeledPointCloud(self.positions[index], self.labels[index], self.taxonomy)

    def with_positions(self, positions: np.ndarray) -> "LabeledPointCloud":
        return LabeledPointCloud(positions, self.labels, self.taxonomy)

    def with_labels(self, labels: np.ndarray) -> "LabeledPointCloud":
        return LabeledPointCloud(self.positions, labels, self.taxonomy)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box, min <= max component-wise."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max, dtype=np.float64).reshape(3)
        if not (lo <= hi).all():
            raise ValueError("Aabb min must be <= max component-wise")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.max - self.min

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)

    def contains(self, other: "Aabb") -> bool:
        return bool((other.min >= self.min).all() and (other.max <= self.max).all())

    def overlaps(self, other: "Aabb") -> bool:
        # Positive-volume intersection; touching faces do not count.
        return bool((self.min < other.max).all() and (other.min < self.max).all())


def aabb_of(cloud: LabeledPointCloud) -> Aabb:
    """Tight bounding box of a non-empty cloud."""
    if cloud.n == 0:
        raise EmptyInputError("cannot take the bounding box of an empty cloud")
    pos = cloud.positions
    return Aabb(_narrow_reduce(np.minimum, pos), _narrow_reduce(np.maximum, pos))


def _narrow_reduce(ufunc, a: np.ndarray, axis: int = 0) -> np.ndarray:
    """``ufunc.reduce(a, axis)`` for ``ufunc`` np.minimum or np.maximum (or
    np.add along axis 1) and a 2-D ``a`` whose other axis is short, taken
    column by column.

    numpy's own reduction along a short axis pays per row, about seven
    times the column-by-column cost on 4,750 x 3 points. Along axis 0, with
    two or more columns, the result is numpy's byte for byte: numpy folds
    the rows in order and a tie between -0.0 and +0.0 keeps the later one,
    so a zero result takes the sign of its column's last zero. Only a
    column that holds a -0.0 is searched for it: in any other, every zero is
    +0.0 and so is the column's own reduction. Along axis 1
    the columns are folded in order, and the sign of a zero result is not
    promised; np.add so folded is numpy's row sum byte for byte for fewer
    than eight columns, which numpy adds in order.
    """
    if axis == 1:
        out = a[:, 0].copy()
        for j in range(1, a.shape[1]):
            ufunc(out, a[:, j], out=out)
        return out
    out = np.array([ufunc.reduce(a[:, j]) for j in range(a.shape[1])])
    for j in np.flatnonzero(out == 0):
        col = a[:, j]
        if np.signbit(col).any():
            out[j] = col[np.flatnonzero(col == 0)[-1]]
    return out


def map_labels(
    cloud: LabeledPointCloud,
    mapping: Mapping[int, int],
    condensed: ClassTaxonomy,
) -> LabeledPointCloud:
    """Condense labels through ``mapping`` (source index -> condensed index
    or ``condensed.ignore_index``). Positions are untouched; input ignore
    points stay ignored. Raises UnknownLabelError for any unmapped label.
    """
    labels = cloud.labels
    out = np.full(cloud.n, condensed.ignore_index, dtype=np.int64)
    active = labels != cloud.taxonomy.ignore_index
    for value in np.unique(labels[active]):
        v = int(value)
        if v not in mapping:
            raise UnknownLabelError(v, "no entry in label mapping")
        out[labels == value] = int(mapping[v])
    return LabeledPointCloud(cloud.positions, out, condensed)


def _check_finite_floats(section) -> None:
    """ValueError naming the first ``float`` field of the config or spec
    dataclass ``section`` whose value (numpy floats included) is not
    finite. Each section runs this before its own range checks."""
    for f in fields(section):
        if f.type in ("float", float) and not np.isfinite(getattr(section, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class AugmentConfig:
    """Flags and parameters for the standard training augmentations."""

    rotate: bool = True
    flip: bool = True
    elastic: bool = True
    jitter: bool = True
    shuffle: bool = True
    elastic_spacing: float = 0.2   # noise grid pitch, meters
    elastic_magnitude: float = 0.05
    jitter_range: float = 0.005

    def __post_init__(self):
        _check_finite_floats(self)
        if not self.elastic_spacing > 0:
            raise ValueError("elastic_spacing must be positive")
        if self.jitter_range < 0:
            raise ValueError("jitter_range must be >= 0")

    @classmethod
    def none(cls) -> "AugmentConfig":
        return cls(rotate=False, flip=False, elastic=False, jitter=False, shuffle=False)


def _elastic_displacement(positions, spacing, magnitude, rng: RandomStream):
    # Coarse smoothed Gaussian noise field, trilinearly interpolated at the
    # points. Grid covers the cloud with one node of margin on each side.
    from scipy.interpolate import RegularGridInterpolator  # only here: ~14 MB that only elastic needs
    lo = _narrow_reduce(np.minimum, positions) - spacing
    hi = _narrow_reduce(np.maximum, positions) + spacing
    dims = np.maximum(np.ceil((hi - lo) / spacing).astype(int) + 1, 2)
    axes = [lo[k] + spacing * np.arange(dims[k]) for k in range(3)]
    noise = rng.normal(size=(dims[0], dims[1], dims[2], 3))
    noise = gaussian_filter(noise, sigma=(1.0, 1.0, 1.0, 0.0), mode="nearest")
    interp = RegularGridInterpolator(axes, noise, bounds_error=False, fill_value=0.0)
    return interp(positions) * magnitude


def standard_augment(
    cloud: LabeledPointCloud,
    config: AugmentConfig,
    rng: RandomStream,
) -> LabeledPointCloud:
    """Apply the usual training augmentations in a fixed order.

    Order: rotation about the vertical axis, x/y flips (probability 0.5
    each), elastic distortion, per-point jitter, point shuffling. Each
    enabled step consumes random draws in this order, so outputs are a
    pure function of (cloud, config, seed). Labels follow their points.
    """
    return _standard_augment(cloud, config, rng)[0]


def _standard_augment(cloud, config, rng):
    """:func:`standard_augment` and its shuffle permutation: output point j
    is input point ``perm[j]`` (``perm`` is None when shuffle is off)."""
    if cloud.n == 0:
        raise EmptyInputError("cannot augment an empty cloud")
    pos = cloud.positions.copy()
    labels = cloud.labels

    center = 0.5 * (_narrow_reduce(np.minimum, pos) + _narrow_reduce(np.maximum, pos))
    if config.rotate:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        # one column at a time: an (n, 2) - (2,) broadcast pays per row
        x, y = pos[:, 0] - center[0], pos[:, 1] - center[1]
        pos[:, 0] = c * x - s * y + center[0]
        pos[:, 1] = s * x + c * y + center[1]
    if config.flip:
        if rng.random() < 0.5:
            pos[:, 0] = 2.0 * center[0] - pos[:, 0]
        if rng.random() < 0.5:
            pos[:, 1] = 2.0 * center[1] - pos[:, 1]
    if config.elastic:
        pos = pos + _elastic_displacement(
            pos, config.elastic_spacing, config.elastic_magnitude, rng
        )
    if config.jitter:
        r = config.jitter_range
        pos = pos + rng.uniform(-r, r, size=(cloud.n, 3))
    perm = None
    if config.shuffle:
        perm = rng.permutation(cloud.n)
        pos = pos[perm]
        labels = labels[perm]

    return LabeledPointCloud(pos, labels, cloud.taxonomy), perm
