"""Scan simulation: imitate a handheld capture of a clean scene.

The simulation places virtual cameras in free space (found on a
bird's-eye-view occupancy grid), culls each camera's view to its field of
view, removes occluded points with a spherical depth buffer, unions the
surviving points over all cameras, and finally jitters coordinates to
mimic sensing noise. Everything that depends only on the scene is a
ScanPlan, built once and reusable across draws. An exact O(n^2) ray-cast oracle is provided to
validate the depth-buffer approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .core import LabeledPointCloud, RandomStream, StructuralClasses, aabb_of
from .errors import (
    DegeneratePoseError,
    NoFreeSpaceError,
    NoWallPointsError,
)

FOV_MODES = ("fixed", "parallel", "perspective")


@dataclass(frozen=True)
class FovConfig:
    """Field-of-view shape: horizontal/vertical angles (degrees) and the
    frustum mode. ``d_ref`` is the slab half-width reference distance used
    by parallel mode only."""

    alpha_h: float = 180.0
    alpha_v: float = 90.0
    mode: str = "fixed"
    d_ref: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha_h <= 360.0:
            raise ValueError("alpha_h must be in (0, 360]")
        if not 0.0 < self.alpha_v <= 180.0:
            raise ValueError("alpha_v must be in (0, 180]")
        if self.mode not in FOV_MODES:
            raise ValueError(f"mode must be one of {FOV_MODES}")

    def shrunk(self, factor_h: float = 1.0, factor_v: float = 1.0) -> "FovConfig":
        return FovConfig(self.alpha_h * factor_h, self.alpha_v * factor_v, self.mode, self.d_ref)


@dataclass(frozen=True)
class ScanSimConfig:
    """Knobs of the scan simulation."""

    n_v: int = 4                 # virtual cameras per scene
    fov: FovConfig = field(default_factory=FovConfig)
    bev_cell: float = 0.25       # occupancy grid cell size, meters
    clearance: float = 0.1      # camera keep-out radius around blocking points
    theta_bin: float = 0.5       # depth-buffer angular bin width, degrees
    eps_d: float = 0.05          # depth tolerance, meters
    delta_p: float = 0.01        # jitter half-range, meters

    def __post_init__(self):
        if self.n_v < 1:
            raise ValueError("n_v must be >= 1")
        if self.bev_cell <= 0:
            raise ValueError("bev_cell must be positive")
        if self.clearance < 0:
            raise ValueError("clearance must be >= 0")
        if self.theta_bin <= 0:
            raise ValueError("theta_bin must be positive")
        if self.eps_d < 0 or self.delta_p < 0:
            raise ValueError("eps_d and delta_p must be >= 0")


@dataclass(frozen=True)
class BevGrid:
    """Bird's-eye-view occupancy over the cloud's x-y bounding box."""

    origin: np.ndarray           # (2,) lower corner
    cell_size: float
    blocked: np.ndarray          # (nx, ny) bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.blocked.shape

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """Centers of (k, 2) integer cell indices."""
        return self.origin + (cells + 0.5) * self.cell_size

    def free_cells(self) -> np.ndarray:
        return np.argwhere(~self.blocked)


def _xy_cells(xy: np.ndarray, origin: np.ndarray, cell: float, shape) -> np.ndarray:
    idx = np.floor((xy - origin) / cell).astype(np.int64)
    # Points exactly on the max boundary fall into the last cell.
    return np.clip(idx, 0, np.asarray(shape) - 1)


def compute_free_space_bev(
    cloud: LabeledPointCloud,
    config: ScanSimConfig,
    structural: StructuralClasses,
) -> BevGrid:
    """Project the cloud down and mark blocked cells.

    A cell is blocked iff it contains any point labeled neither floor nor
    ceiling, or it touches the x-y bounding-box boundary. Raises
    NoFreeSpaceError when nothing remains free.
    """
    box = aabb_of(cloud)
    origin = box.min[:2]
    extent = box.extent[:2]
    shape = np.maximum(np.ceil(extent / config.bev_cell).astype(int), 1)
    blocked = np.zeros(tuple(shape), dtype=bool)
    blocked[0, :] = blocked[-1, :] = True
    blocked[:, 0] = blocked[:, -1] = True

    labels = cloud.labels
    blocking = (labels != structural.floor) & (labels != structural.ceiling)
    if blocking.any():
        cells = _xy_cells(cloud.positions[blocking, :2], origin, config.bev_cell, shape)
        blocked[cells[:, 0], cells[:, 1]] = True
    if blocked.all():
        raise NoFreeSpaceError("every bird's-eye-view cell is blocked")
    return BevGrid(origin.copy(), config.bev_cell, blocked)


@dataclass(frozen=True)
class CameraPose:
    """Camera position and the point it looks at."""

    position: np.ndarray
    look_at: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.position, dtype=np.float64).reshape(3)
        h = np.asarray(self.look_at, dtype=np.float64).reshape(3)
        if np.array_equal(v, h):
            raise DegeneratePoseError("look_at must differ from position")
        object.__setattr__(self, "position", v)
        object.__setattr__(self, "look_at", h)

    @property
    def forward(self) -> np.ndarray:
        f = self.look_at - self.position
        return f / np.linalg.norm(f)


def camera_frame(pose: CameraPose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward, up, right) with up = world z projected orthogonal to
    forward and right = forward x up. Raises DegeneratePoseError when the
    forward axis is vertical."""
    f = pose.forward
    up = np.array([0.0, 0.0, 1.0]) - f[2] * f
    norm = np.linalg.norm(up)
    if norm < 1e-12:
        raise DegeneratePoseError("camera forward axis is parallel to world z")
    up = up / norm
    right = np.cross(f, up)
    return f, up, right


@dataclass(frozen=True)
class ScanPlan:
    """What scanning one scene needs that no draw changes, built once by
    :func:`plan_scan` and reused by every draw on that scene: the BEV grid,
    the free cells left after the clearance filter, the wall points a
    camera may aim at, and the camera height range [z_lo, z_max]."""

    bev: BevGrid
    free: np.ndarray             # (k, 2) cells a camera may stand on
    wall_idx: np.ndarray         # indices of wall-labeled points
    z_lo: float
    z_max: float


def plan_scan(
    cloud: LabeledPointCloud,
    config: ScanSimConfig,
    structural: StructuralClasses,
    bev: BevGrid | None = None,
) -> ScanPlan:
    """Scene-only part of pose sampling. ``bev`` defaults to
    :func:`compute_free_space_bev` of the cloud.

    Free cells are those whose center lies farther than ``clearance`` from
    every blocking point; cameras stand in the top half of the cloud's
    vertical extent. Raises NoFreeSpaceError or NoWallPointsError.
    """
    if bev is None:
        bev = compute_free_space_bev(cloud, config, structural)
    free = bev.free_cells()
    if len(free) == 0:
        raise NoFreeSpaceError("no free cell to place a camera")
    if config.clearance > 0:
        blocking = (cloud.labels != structural.floor) & (cloud.labels != structural.ceiling)
        if blocking.any():
            tree = cKDTree(cloud.positions[blocking, :2])
            centers = bev.cell_centers(free)
            dist, _ = tree.query(centers, k=1)
            free = free[dist > config.clearance]
            if len(free) == 0:
                raise NoFreeSpaceError("clearance radius excludes every free cell")
    wall_idx = np.flatnonzero(cloud.labels == structural.wall)
    if len(wall_idx) == 0:
        raise NoWallPointsError("no wall-labeled point to aim at")

    z = cloud.positions[:, 2]
    z_min, z_max = float(z.min()), float(z.max())
    z_lo = z_min + 0.5 * (z_max - z_min)
    return ScanPlan(bev, free, wall_idx, z_lo, z_max)


def sample_camera_poses(
    cloud: LabeledPointCloud,
    bev: BevGrid,
    config: ScanSimConfig,
    structural: StructuralClasses,
    rng: RandomStream,
    plan: ScanPlan | None = None,
) -> list[CameraPose]:
    """Draw ``n_v`` independent poses.

    x-y is a uniformly chosen free-cell center, z is uniform over the top
    half of the cloud's vertical extent, and the look-at target is a
    uniformly chosen wall-labeled point. ``plan`` must come from
    :func:`plan_scan` on the same cloud, config and structural classes;
    without it one is built over ``bev``.
    """
    if plan is None:
        plan = plan_scan(cloud, config, structural, bev)
    free, wall_idx = plan.free, plan.wall_idx
    z_lo, z_max = plan.z_lo, plan.z_max
    poses = []
    for _ in range(config.n_v):
        cell = free[int(rng.integers(0, len(free)))]
        cx, cy = plan.bev.cell_centers(cell[None, :])[0]
        cz = float(rng.uniform(z_lo, z_max)) if z_max > z_lo else z_max
        v = np.array([cx, cy, cz])
        h = cloud.positions[int(wall_idx[int(rng.integers(0, len(wall_idx)))])]
        while np.array_equal(h, v):
            h = cloud.positions[int(wall_idx[int(rng.integers(0, len(wall_idx)))])]
        poses.append(CameraPose(v, h.copy()))
    return poses


def _camera_components(cloud, pose):
    f, up, right = camera_frame(pose)
    q = cloud.positions - pose.position
    return q @ f, q @ up, q @ right


def _angles(qf, qu, qr) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth and elevation in degrees from camera-frame components."""
    return np.degrees(np.arctan2(qr, qf)), np.degrees(np.arctan2(qu, np.hypot(qf, qr)))


def _fov_mask(qf, qu, qr, fov: FovConfig, angles=None) -> np.ndarray:
    # ``angles``: _angles(qf, qu, qr) when the caller already has them
    if fov.mode == "fixed":
        az, el = angles if angles is not None else _angles(qf, qu, qr)
        return (np.abs(az) <= fov.alpha_h / 2) & (np.abs(el) <= fov.alpha_v / 2)
    th = np.tan(np.radians(fov.alpha_h / 2))
    tv = np.tan(np.radians(fov.alpha_v / 2))
    ahead = qf > 0
    if fov.mode == "perspective":
        return ahead & (np.abs(qr) <= qf * th) & (np.abs(qu) <= qf * tv)
    return ahead & (np.abs(qr) <= fov.d_ref * th) & (np.abs(qu) <= fov.d_ref * tv)


def visible_range_mask(
    cloud: LabeledPointCloud,
    pose: CameraPose,
    fov: FovConfig,
) -> np.ndarray:
    """Points inside the camera's field of view (boundary inclusive).

    fixed: azimuth within +-alpha_h/2 and elevation within +-alpha_v/2.
    perspective: in front of the camera with |right/forward| and
    |up/forward| bounded by tan of the half-angles. parallel: in front of
    the camera inside a slab of half-width d_ref * tan(half-angle).
    """
    return _fov_mask(*_camera_components(cloud, pose), fov)


def visible_points(
    cloud: LabeledPointCloud,
    pose: CameraPose,
    config: ScanSimConfig,
    fov: FovConfig | None = None,
) -> np.ndarray:
    """Spherical depth buffer over the in-FOV points.

    Points are binned by (azimuth, elevation) at ``theta_bin`` degrees; a
    point survives iff its range is within ``eps_d`` of its bin's minimum.
    """
    fov = fov or config.fov
    qf, qu, qr = _camera_components(cloud, pose)
    # the fixed mode's mask needs every point's angles; other modes only the in-FOV ones
    angles = _angles(qf, qu, qr) if fov.mode == "fixed" else None
    idx = np.flatnonzero(_fov_mask(qf, qu, qr, fov, angles))
    out = np.zeros(cloud.n, dtype=bool)
    if len(idx) == 0:
        return out
    qf, qu, qr = qf[idx], qu[idx], qr[idx]
    r = np.sqrt(qf * qf + qu * qu + qr * qr)
    az, el = (angles[0][idx], angles[1][idx]) if angles is not None else _angles(qf, qu, qr)
    a_bin = np.floor(az / config.theta_bin).astype(np.int64)
    e_bin = np.floor(el / config.theta_bin).astype(np.int64)
    key = a_bin * (2 ** 20) + e_bin
    _, inverse = np.unique(key, return_inverse=True)
    nearest = np.full(inverse.max() + 1, np.inf)
    np.minimum.at(nearest, inverse, r)
    out[idx[r <= nearest[inverse] + config.eps_d]] = True
    return out


def visibility_oracle(
    cloud: LabeledPointCloud,
    pose: CameraPose,
    fov: FovConfig,
    r_pt: float,
    chunk: int = 2048,
) -> np.ndarray:
    """Exact reference visibility under a sphere-occluder model.

    Every point is a sphere of radius ``r_pt``. An in-FOV point p is
    occluded iff some other point's center passes within r_pt of the ray
    from the camera to p at a forward distance t with
    0 < t < |p - v| - r_pt. The FOV rule matches visible_points.
    """
    if r_pt <= 0:
        raise ValueError("r_pt must be positive")
    mask = visible_range_mask(cloud, pose, fov)
    cand = np.flatnonzero(mask)
    out = np.zeros(cloud.n, dtype=bool)
    if len(cand) == 0:
        return out
    rel = cloud.positions - pose.position
    dist = np.linalg.norm(rel, axis=1)
    cd = np.maximum(dist[cand], 1e-300)
    units = rel[cand] / cd[:, None]
    limit = dist[cand] - r_pt
    occluded = np.zeros(len(cand), dtype=bool)
    r2 = r_pt * r_pt
    for lo in range(0, cloud.n, chunk):
        sl = slice(lo, min(lo + chunk, cloud.n))
        t = units @ rel[sl].T                       # (m, k) along-ray distance
        perp2 = (dist[sl] ** 2)[None, :] - t * t
        hits = (perp2 < r2) & (t > 0) & (t < limit[:, None])
        occluded |= hits.any(axis=1)
    out[cand[~occluded]] = True
    return out


def visible_union_mask(
    cloud: LabeledPointCloud,
    poses: list[CameraPose],
    config: ScanSimConfig,
) -> np.ndarray:
    """Union of per-camera visibility masks."""
    union = np.zeros(cloud.n, dtype=bool)
    for pose in poses:
        union |= visible_points(cloud, pose, config)
    return union


def simulate_scan(
    cloud: LabeledPointCloud,
    config: ScanSimConfig,
    structural: StructuralClasses,
    rng: RandomStream,
    plan: ScanPlan | None = None,
) -> LabeledPointCloud:
    """Full occlusion simulation: sample poses, keep the union of visible
    points. Output is a subset of the input with order preserved. ``plan``
    (from :func:`plan_scan` on the same scene) is built when not given;
    reusing one leaves the output unchanged."""
    if plan is None:
        plan = plan_scan(cloud, config, structural)
    poses = sample_camera_poses(cloud, plan.bev, config, structural, rng, plan)
    return cloud.select(visible_union_mask(cloud, poses, config))


def jitter_points(cloud: LabeledPointCloud, delta_p: float, rng: RandomStream) -> LabeledPointCloud:
    """Displace every coordinate by an independent uniform draw in
    [-delta_p, delta_p]; labels and count are unchanged."""
    if delta_p < 0:
        raise ValueError("delta_p must be >= 0")
    if delta_p == 0 or cloud.n == 0:
        return cloud
    return cloud.with_positions(
        cloud.positions + rng.uniform(-delta_p, delta_p, size=(cloud.n, 3))
    )


def scan_and_jitter(
    cloud: LabeledPointCloud,
    config: ScanSimConfig,
    structural: StructuralClasses,
    rng: RandomStream,
    plan: ScanPlan | None = None,
) -> LabeledPointCloud:
    """Occlusion simulation followed by noise jitter (the full augmentation).
    ``plan`` is passed to :func:`simulate_scan`."""
    return jitter_points(simulate_scan(cloud, config, structural, rng, plan), config.delta_p, rng)
