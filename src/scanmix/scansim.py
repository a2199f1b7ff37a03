"""Scan simulation: imitate a handheld capture of a clean scene.

The simulation places virtual cameras in free space (found on a
bird's-eye-view occupancy grid), culls each camera's view to its field of
view, removes occluded points with a spherical depth buffer, unions the
surviving points over all cameras, and finally jitters coordinates to
mimic sensing noise. Everything that depends only on the scene is a
ScanPlan, built once and reusable across draws. An exact O(n^2) ray-cast oracle is provided to
validate the depth-buffer approximation; one field-of-view routine,
``_in_fov``, culls for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import maximum_filter
from scipy.spatial import cKDTree

from .core import LabeledPointCloud, RandomStream, StructuralClasses, aabb_of
from .errors import (
    DegeneratePoseError,
    NoFreeSpaceError,
    NoWallPointsError,
)

FOV_MODES = ("fixed", "parallel", "perspective")
# Finer depth-buffer bins would overflow visible_points' int64 bin key.
_MIN_THETA_BIN = 1e-6
# Relative slack that rounds a cell reach within rounding of an integer up.
_ROUNDING_SLACK = 1e-9


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
        if not self.d_ref > 0.0:
            raise ValueError("d_ref must be positive")


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
        if not self.bev_cell > 0:
            raise ValueError("bev_cell must be positive")
        if not self.clearance >= 0:
            raise ValueError("clearance must be >= 0")
        if not self.theta_bin >= _MIN_THETA_BIN:
            raise ValueError(f"theta_bin must be >= {_MIN_THETA_BIN} degrees")
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
    return _free_space_bev(cloud, config, structural)[0]


def _free_space_bev(cloud, config, structural):
    """:func:`compute_free_space_bev`, the x-y positions of the blocking
    points and their (k, 2) cells."""
    box = aabb_of(cloud)
    origin = box.min[:2]
    extent = box.extent[:2]
    shape = np.maximum(np.ceil(extent / config.bev_cell).astype(int), 1)
    blocked = np.zeros(tuple(shape), dtype=bool)
    blocked[0, :] = blocked[-1, :] = True
    blocked[:, 0] = blocked[:, -1] = True

    labels = cloud.labels
    blocking = (labels != structural.floor) & (labels != structural.ceiling)
    # np.compress takes the rows about 4x faster than positions[blocking, :2]
    xy = np.compress(blocking, cloud.positions, axis=0)[:, :2]
    cells = _xy_cells(xy, origin, config.bev_cell, shape)
    blocked[cells[:, 0], cells[:, 1]] = True
    if blocked.all():
        raise NoFreeSpaceError("every bird's-eye-view cell is blocked")
    return BevGrid(origin.copy(), config.bev_cell, blocked), xy, cells


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
    # np.cross's products and differences, written out: the same bytes
    (fx, fy, fz), (ux, uy, uz) = f.tolist(), up.tolist()
    right = np.array([fy * uz - fz * uy, fz * ux - fx * uz, fx * uy - fy * ux])
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
) -> ScanPlan:
    """Scene-only part of pose sampling, over the cloud's
    :func:`compute_free_space_bev`.

    Free cells are those whose center lies farther than ``clearance`` from
    every blocking point; cameras stand in the top half of the cloud's
    vertical extent. Raises NoFreeSpaceError or NoWallPointsError.
    """
    bev, xy, cells = _free_space_bev(cloud, config, structural)
    free = bev.free_cells()
    # A cell d >= 1 cells from a free cell on some axis is at least
    # (d - 0.5) * bev_cell from its center, and a free cell holds no
    # blocking point, so only the points in cells within ``reach`` of a free
    # cell can lie within ``clearance``; the slack covers the rounding of
    # the cell indices and centers.
    span = np.abs(bev.origin).max() / config.bev_cell + max(bev.shape)
    ratio = config.clearance / config.bev_cell + 0.5 + _ROUNDING_SLACK * (1.0 + span)
    reach = int(min(ratio, max(bev.shape)))
    near = maximum_filter(~bev.blocked, size=2 * reach + 1, mode="constant")
    candidates = near[cells[:, 0], cells[:, 1]]
    if candidates.any():
        dist, _ = cKDTree(xy[candidates]).query(bev.cell_centers(free), k=1)
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
    plan: ScanPlan,
    config: ScanSimConfig,
    rng: RandomStream,
) -> list[CameraPose]:
    """Draw ``n_v`` independent poses.

    x-y is a uniformly chosen free-cell center, z is uniform over the top
    half of the cloud's vertical extent, and the look-at target is a
    uniformly chosen wall-labeled point. ``plan`` must come from
    :func:`plan_scan` on the same cloud and config.
    """
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


def _in_fov(qf, qu, qr, fov: FovConfig):
    """The ascending indices of the points inside ``fov``, from their
    camera-frame components, with their azimuths and elevations in degrees.
    The fixed mode takes the azimuth only of the points a conservative
    prefilter admits, and the elevation only where the azimuth passed; the
    other modes take both only for the points their frustum test keeps."""
    if fov.mode == "fixed":
        if fov.alpha_h <= 180.0:
            # |azimuth| <= 90 needs qf >= 0 up to rounding (qf = -1e-17, qr = 1
            # has azimuth 90.0); a point this drops is more than 5.7e-8
            # degrees past 90, far beyond that rounding
            idx = np.flatnonzero(qf >= -1e-9 * np.abs(qr))
        else:
            idx = np.arange(len(qf))
        az = np.degrees(np.arctan2(qr[idx], qf[idx]))
        keep = np.flatnonzero(np.abs(az) <= fov.alpha_h / 2)
        idx, az = idx[keep], az[keep]
        el = np.degrees(np.arctan2(qu[idx], np.hypot(qf[idx], qr[idx])))
        keep = np.flatnonzero(np.abs(el) <= fov.alpha_v / 2)
        return idx[keep], az[keep], el[keep]
    th = np.tan(np.radians(fov.alpha_h / 2))
    tv = np.tan(np.radians(fov.alpha_v / 2))
    # the half-widths grow with the forward distance in perspective mode
    # and stay those at d_ref in parallel mode
    d = qf if fov.mode == "perspective" else fov.d_ref
    idx = np.flatnonzero((qf > 0) & (np.abs(qr) <= d * th) & (np.abs(qu) <= d * tv))
    qf, qu, qr = qf[idx], qu[idx], qr[idx]
    return idx, np.degrees(np.arctan2(qr, qf)), np.degrees(np.arctan2(qu, np.hypot(qf, qr)))


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
    mask = np.zeros(cloud.n, dtype=bool)
    mask[_in_fov(*_camera_components(cloud, pose), fov)[0]] = True
    return mask


def visible_points(
    cloud: LabeledPointCloud,
    pose: CameraPose,
    config: ScanSimConfig,
) -> np.ndarray:
    """Spherical depth buffer over the in-FOV points.

    Points are binned by (azimuth, elevation) at ``theta_bin`` degrees; a
    point survives iff its range is within ``eps_d`` of its bin's minimum.
    """
    qf, qu, qr = _camera_components(cloud, pose)
    idx, az, el = _in_fov(qf, qu, qr, config.fov)
    out = np.zeros(cloud.n, dtype=bool)
    if len(idx) == 0:
        return out
    qf, qu, qr = qf[idx], qu[idx], qr[idx]
    r = np.sqrt(qf * qf + qu * qu + qr * qr)
    a_bin = np.floor(az / config.theta_bin).astype(np.int64)
    e_bin = np.floor(el / config.theta_bin).astype(np.int64)
    # one integer per (azimuth, elevation) bin pair
    e_lo = e_bin.min()
    key = a_bin * (e_bin.max() - e_lo + 1) + (e_bin - e_lo)
    _, inverse = np.unique(key, return_inverse=True)
    nearest = np.full(inverse.max() + 1, np.inf)
    np.minimum.at(nearest, inverse, r)
    out[idx[r <= nearest[inverse] + config.eps_d]] = True
    return out


_ORACLE_CHUNK = 2048             # occluder columns per (m, k) block


def visibility_oracle(
    cloud: LabeledPointCloud,
    pose: CameraPose,
    fov: FovConfig,
    r_pt: float,
) -> np.ndarray:
    """Exact reference visibility under a sphere-occluder model.

    Every point is a sphere of radius ``r_pt``. An in-FOV point p is
    occluded iff some other point's center passes within r_pt of the ray
    from the camera to p at a forward distance t with
    0 < t < |p - v| - r_pt. The FOV rule matches visible_points.
    """
    if r_pt <= 0:
        raise ValueError("r_pt must be positive")
    cand = _in_fov(*_camera_components(cloud, pose), fov)[0]
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
    for lo in range(0, cloud.n, _ORACLE_CHUNK):
        sl = slice(lo, min(lo + _ORACLE_CHUNK, cloud.n))
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
    return cloud.select(_visible_indices(cloud, config, structural, rng, plan))


def _visible_indices(cloud, config, structural, rng, plan):
    # ascending indices of the points :func:`simulate_scan` keeps
    if plan is None:
        plan = plan_scan(cloud, config, structural)
    poses = sample_camera_poses(cloud, plan, config, rng)
    return np.flatnonzero(visible_union_mask(cloud, poses, config))


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
    ``plan`` is as for :func:`simulate_scan`."""
    return _scan_and_jitter(cloud, config, structural, rng, plan)[0]


def _scan_and_jitter(cloud, config, structural, rng, plan):
    """:func:`scan_and_jitter` and the ascending indices ``kept`` of the
    input points it kept: output point j is input point ``kept[j]``."""
    kept = _visible_indices(cloud, config, structural, rng, plan)
    return jitter_points(cloud.select(kept), config.delta_p, rng), kept
