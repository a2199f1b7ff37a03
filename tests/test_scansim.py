import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import chi2

from scanmix import (
    CameraPose,
    FovConfig,
    LabeledPointCloud,
    RandomStream,
    ScanSimConfig,
    TOY_STRUCTURAL,
    TOY_TAXONOMY,
    compute_free_space_bev,
    generate_scene,
    jitter_points,
    make_template,
    plan_scan,
    sample_camera_poses,
    scan_and_jitter,
    simulate_scan,
    template_names,
    visibility_oracle,
    visible_points,
    visible_range_mask,
    visible_union_mask,
)
from scanmix.errors import DegeneratePoseError, NoFreeSpaceError, NoWallPointsError
import scanmix.scansim as scansim
from scanmix.scansim import _camera_components, camera_frame


def empty_room_cloud(size=4.0, cell=0.5):
    """Floor points at interior cell centers, wall points on the perimeter."""
    ticks = np.arange(cell / 2, size, cell)
    fx, fy = np.meshgrid(ticks, ticks, indexing="ij")
    floor = np.column_stack([fx.ravel(), fy.ravel(), np.zeros(fx.size)])
    t = np.linspace(0, size, 41)
    walls = []
    for z in (0.5, 1.5, 2.4):
        walls.append(np.column_stack([t, np.zeros_like(t), np.full_like(t, z)]))
        walls.append(np.column_stack([t, np.full_like(t, size), np.full_like(t, z)]))
        walls.append(np.column_stack([np.zeros_like(t), t, np.full_like(t, z)]))
        walls.append(np.column_stack([np.full_like(t, size), t, np.full_like(t, z)]))
    walls = np.concatenate(walls)
    pos = np.concatenate([floor, walls])
    labels = np.concatenate([np.zeros(len(floor), dtype=int), np.full(len(walls), 2)])
    return LabeledPointCloud(pos, labels, TOY_TAXONOMY)


def template_cloud(name, seed, density=120.0):
    rng = RandomStream(seed)
    spec = make_template(name, rng, density=density)
    return generate_scene(spec, TOY_TAXONOMY, rng)


class TestBev:
    def test_empty_room_interior_free(self):
        cloud = empty_room_cloud()
        config = ScanSimConfig(bev_cell=0.5)
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        assert bev.shape == (8, 8)
        interior = ~bev.blocked[1:-1, 1:-1]
        assert interior.all()
        ring = bev.blocked.copy()
        ring[1:-1, 1:-1] = True
        assert ring.all()

    def test_box_blocks_exact_cells(self):
        cloud = empty_room_cloud()
        # add a box surface patch over [1.5, 2.5]^2 at table height
        t = np.linspace(1.5, 2.5, 21)
        bx, by = np.meshgrid(t, t, indexing="ij")
        box_pts = np.column_stack([bx.ravel(), by.ravel(), np.full(bx.size, 0.7)])
        pos = np.concatenate([cloud.positions, box_pts])
        labels = np.concatenate([cloud.labels, np.full(len(box_pts), 3)])
        cloud2 = LabeledPointCloud(pos, labels, TOY_TAXONOMY)
        config = ScanSimConfig(bev_cell=0.5)
        bev = compute_free_space_bev(cloud2, config, TOY_STRUCTURAL)

        # brute-force per-point binning oracle
        expect = np.zeros(bev.shape, dtype=bool)
        expect[0, :] = expect[-1, :] = expect[:, 0] = expect[:, -1] = True
        blocking = (labels != 0) & (labels != 1)
        cells = np.floor((pos[blocking, :2] - bev.origin) / 0.5).astype(int)
        cells = np.clip(cells, 0, np.array(bev.shape) - 1)
        expect[cells[:, 0], cells[:, 1]] = True
        assert np.array_equal(bev.blocked, expect)

    def test_solid_scene_raises(self):
        # every cell contains a furniture point
        t = np.arange(0.25, 4.0, 0.5)
        gx, gy = np.meshgrid(t, t, indexing="ij")
        pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, 1.0)])
        cloud = LabeledPointCloud(pos, np.full(len(pos), 3), TOY_TAXONOMY)
        with pytest.raises(NoFreeSpaceError):
            compute_free_space_bev(cloud, ScanSimConfig(bev_cell=0.5), TOY_STRUCTURAL)


class TestPoseSampling:
    def test_basic_contract(self):
        cloud = empty_room_cloud()
        config = ScanSimConfig(bev_cell=0.5, n_v=4)
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        poses = sample_camera_poses(cloud, plan, config, RandomStream(0))
        assert len(poses) == 4
        z = cloud.positions[:, 2]
        z_lo = z.min() + 0.5 * (z.max() - z.min())
        free_centers = {tuple(c) for c in plan.bev.cell_centers(plan.bev.free_cells())}
        wall_pts = {tuple(p) for p in cloud.positions[cloud.labels == 2]}
        for pose in poses:
            assert (pose.position[0], pose.position[1]) in free_centers
            assert z_lo <= pose.position[2] < z.max() + 1e-12
            assert tuple(pose.look_at) in wall_pts

    def test_single_cell_single_wall_point(self):
        # one free cell requires a 3x3 grid with only the center free
        pos = [[x + 0.25, y + 0.25, 0.0] for x in np.arange(0, 1.5, 0.5) for y in np.arange(0, 1.5, 0.5)]
        labels = [0] * 9
        pos.append([0.1, 0.1, 1.0])   # single wall point, in a boundary cell
        labels.append(2)
        cloud = LabeledPointCloud(np.array(pos), np.array(labels), TOY_TAXONOMY)
        config = ScanSimConfig(bev_cell=0.5, n_v=6, clearance=0.0)
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        assert len(plan.bev.free_cells()) == 1
        poses = sample_camera_poses(cloud, plan, config, RandomStream(3))
        xy = {(p.position[0], p.position[1]) for p in poses}
        assert len(xy) == 1
        assert all(np.array_equal(p.look_at, [0.1, 0.1, 1.0]) for p in poses)

    def test_no_wall_points(self):
        t = np.arange(0.25, 4.0, 0.5)
        gx, gy = np.meshgrid(t, t, indexing="ij")
        pos = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        cloud = LabeledPointCloud(pos, np.zeros(len(pos), dtype=int), TOY_TAXONOMY)
        config = ScanSimConfig(bev_cell=0.5)
        with pytest.raises(NoWallPointsError):
            sample_camera_poses(cloud, plan_scan(cloud, config, TOY_STRUCTURAL), config, RandomStream(0))

    def test_xy_uniform_over_free_cells(self):
        cloud = empty_room_cloud()
        config = ScanSimConfig(bev_cell=0.5, n_v=1)
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        free = plan.free
        centers = plan.bev.cell_centers(free)
        lookup = {tuple(c): i for i, c in enumerate(centers)}
        counts = np.zeros(len(free))
        rng = RandomStream(12)
        n = 10_000
        for _ in range(n):
            pose = sample_camera_poses(cloud, plan, config, rng)[0]
            counts[lookup[(pose.position[0], pose.position[1])]] += 1
        expected = n / len(free)
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.99, df=len(free) - 1)


def range_mask_oracle(cloud, pose, fov):
    """Independent per-point evaluation of the field-of-view rules."""
    f = pose.look_at - pose.position
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0]) - f[2] * f
    up = up / np.linalg.norm(up)
    right = np.cross(f, up)
    out = np.zeros(cloud.n, dtype=bool)
    for i, p in enumerate(cloud.positions):
        q = p - pose.position
        qf, qu, qr = float(q @ f), float(q @ up), float(q @ right)
        if fov.mode == "fixed":
            az = math.degrees(math.atan2(qr, qf))
            el = math.degrees(math.atan2(qu, math.hypot(qf, qr)))
            out[i] = abs(az) <= fov.alpha_h / 2 and abs(el) <= fov.alpha_v / 2
        elif fov.mode == "perspective":
            if qf <= 0:
                continue
            out[i] = (
                abs(qr / qf) <= math.tan(math.radians(fov.alpha_h / 2))
                and abs(qu / qf) <= math.tan(math.radians(fov.alpha_v / 2))
            )
        else:
            if qf <= 0:
                continue
            out[i] = (
                abs(qr) <= fov.d_ref * math.tan(math.radians(fov.alpha_h / 2))
                and abs(qu) <= fov.d_ref * math.tan(math.radians(fov.alpha_v / 2))
            )
    return out


def angles(qf, qu, qr):
    """Reference: azimuth and elevation in degrees from camera-frame
    components, of every point."""
    return np.degrees(np.arctan2(qr, qf)), np.degrees(np.arctan2(qu, np.hypot(qf, qr)))


def fov_mask(qf, qu, qr, fov):
    """Reference: the field-of-view rules over the full arrays, the fixed
    mode taking the angles of every point."""
    if fov.mode == "fixed":
        az, el = angles(qf, qu, qr)
        return (np.abs(az) <= fov.alpha_h / 2) & (np.abs(el) <= fov.alpha_v / 2)
    th = np.tan(np.radians(fov.alpha_h / 2))
    tv = np.tan(np.radians(fov.alpha_v / 2))
    ahead = qf > 0
    if fov.mode == "perspective":
        return ahead & (np.abs(qr) <= qf * th) & (np.abs(qu) <= qf * tv)
    return ahead & (np.abs(qr) <= fov.d_ref * th) & (np.abs(qu) <= fov.d_ref * tv)


class TestVisibleRange:
    def pose(self):
        return CameraPose(np.array([2.0, 2.0, 1.5]), np.array([4.0, 2.0, 1.2]))

    def test_point_along_forward_all_modes(self):
        pose = self.pose()
        v = pose.position
        f = pose.forward
        cloud = LabeledPointCloud((v + 1.5 * f)[None, :], np.array([0]), TOY_TAXONOMY)
        for mode in ("fixed", "parallel", "perspective"):
            fov = FovConfig(90.0, 60.0, mode)
            assert visible_range_mask(cloud, pose, fov)[0]

    def test_fixed_180_boundary(self):
        pose = CameraPose(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.5]))
        f = pose.forward
        up = np.array([0.0, 0.0, 1.0]) - f[2] * f
        up /= np.linalg.norm(up)
        right = np.cross(f, up)
        behind = pose.position - 2.0 * f
        side = pose.position + 2.0 * right          # azimuth exactly 90 degrees
        cloud = LabeledPointCloud(np.stack([behind, side]), np.array([0, 0]), TOY_TAXONOMY)
        mask = visible_range_mask(cloud, pose, FovConfig(180.0, 180.0, "fixed"))
        assert not mask[0]
        assert mask[1]

    def test_against_per_point_oracle(self):
        gen = RandomStream(8)
        pos = gen.uniform(-3, 3, size=(1000, 3))
        cloud = LabeledPointCloud(pos, np.zeros(1000, dtype=int), TOY_TAXONOMY)
        pose = CameraPose(np.array([0.2, -0.1, 0.4]), np.array([1.5, 0.7, 0.1]))
        for mode in ("fixed", "parallel", "perspective"):
            for ah, av in ((180.0, 90.0), (120.0, 60.0), (90.0, 45.0)):
                fov = FovConfig(ah, av, mode, d_ref=1.5)
                got = visible_range_mask(cloud, pose, fov)
                want = range_mask_oracle(cloud, pose, fov)
                assert np.array_equal(got, want), (mode, ah, av)

    def test_fov_nesting(self):
        cloud = template_cloud("one_occluder", 1, density=60.0)
        pose = CameraPose(np.array([2.0, 2.0, 2.0]), np.array([0.0, 2.0, 1.0]))
        for mode in ("fixed", "parallel", "perspective"):
            big = visible_range_mask(cloud, pose, FovConfig(170.0, 100.0, mode))
            small = visible_range_mask(cloud, pose, FovConfig(100.0, 50.0, mode))
            assert not (small & ~big).any()

    def test_vertical_forward_degenerate(self):
        cloud = empty_room_cloud()
        pose = CameraPose(np.array([2.0, 2.0, 1.0]), np.array([2.0, 2.0, 2.5]))
        with pytest.raises(DegeneratePoseError):
            visible_range_mask(cloud, pose, FovConfig())


class TestVisiblePoints:
    def test_single_point_visible(self):
        pose = CameraPose(np.array([0.0, 0.0, 1.0]), np.array([3.0, 0.0, 1.0]))
        cloud = LabeledPointCloud(np.array([[2.0, 0.0, 1.0]]), np.array([0]), TOY_TAXONOMY)
        assert visible_points(cloud, pose, ScanSimConfig())[0]

    def test_same_ray_near_occludes_far(self):
        pose = CameraPose(np.array([0.0, 0.0, 1.0]), np.array([5.0, 0.0, 1.0]))
        cloud = LabeledPointCloud(
            np.array([[1.0, 0.0, 1.0], [3.0, 0.0, 1.0]]), np.array([0, 0]), TOY_TAXONOMY
        )
        mask = visible_points(cloud, pose, ScanSimConfig(eps_d=0.05))
        assert mask[0] and not mask[1]

    def test_nearest_in_bin_always_visible(self):
        cloud = template_cloud("cluttered", 3, density=50.0)
        pose = CameraPose(np.array([3.0, 2.5, 2.0]), np.array([0.0, 2.5, 1.0]))
        config = ScanSimConfig()
        mask = visible_points(cloud, pose, config)
        in_range = visible_range_mask(cloud, pose, config.fov)
        # every in-range point closer than any other in its bin must survive
        assert mask[in_range].any()
        assert not mask[~in_range].any()

    def test_oracle_agreement_small_scene(self):
        cloud = template_cloud("one_occluder", 2, density=80.0)
        config = ScanSimConfig()
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        poses = sample_camera_poses(cloud, plan, config, RandomStream(5))
        db = visible_union_mask(cloud, poses, config)
        oracle = np.zeros(cloud.n, dtype=bool)
        for pose in poses:
            oracle |= visibility_oracle(cloud, pose, config.fov, r_pt=0.02)
        agreement = (db == oracle).mean()
        assert agreement >= 0.95


class TestVisibilityOracle:
    def test_midpoint_occluder(self):
        pose = CameraPose(np.array([0.0, 0.0, 1.0]), np.array([5.0, 0.0, 1.0]))
        cloud = LabeledPointCloud(
            np.array([[2.0, 0.0, 1.0], [4.0, 0.0, 1.0]]), np.array([0, 0]), TOY_TAXONOMY
        )
        mask = visibility_oracle(cloud, pose, FovConfig(), r_pt=0.02)
        assert mask[0] and not mask[1]

    def test_lateral_displacement_clears(self):
        r_pt = 0.02
        pose = CameraPose(np.array([0.0, 0.0, 1.0]), np.array([5.0, 0.0, 1.0]))
        cloud = LabeledPointCloud(
            np.array([[2.0, 2 * r_pt, 1.0], [4.0, 0.0, 1.0]]), np.array([0, 0]), TOY_TAXONOMY
        )
        mask = visibility_oracle(cloud, pose, FovConfig(), r_pt=r_pt)
        assert mask[0] and mask[1]

    def test_empty_room_walls_floor_mostly_visible(self):
        # wall/floor only: the ceiling sits close to a top-half camera and
        # is legitimately self-occluded at grazing angles
        cloud = template_cloud("empty_room", 4, density=100.0)
        pose = CameraPose(np.array([2.0, 2.0, 2.0]), np.array([0.05, 2.0, 1.2]))
        fov = FovConfig(180.0, 90.0, "fixed")
        mask = visibility_oracle(cloud, pose, fov, r_pt=0.02)
        in_range = visible_range_mask(cloud, pose, fov)
        keep = in_range & ((cloud.labels == 0) | (cloud.labels == 2))
        assert mask[keep].mean() >= 0.99


class TestSimulateScan:
    def test_subset_and_order(self):
        cloud = template_cloud("one_occluder", 6, density=60.0)
        out = simulate_scan(cloud, ScanSimConfig(), TOY_STRUCTURAL, RandomStream(1))
        assert out.n <= cloud.n
        # order-preserving subset: every output point appears in the input,
        # in the same relative order
        pos_map = {tuple(p): i for i, p in enumerate(cloud.positions)}
        indices = [pos_map[tuple(p)] for p in out.positions]
        assert indices == sorted(indices)

    def test_full_coverage_converges(self):
        cloud = template_cloud("empty_room", 7, density=60.0)
        config = ScanSimConfig(n_v=64, fov=FovConfig(360.0, 180.0, "fixed"))
        out = simulate_scan(cloud, config, TOY_STRUCTURAL, RandomStream(2))
        assert out.n >= 0.99 * cloud.n

    def test_union_monotone_in_camera_count(self):
        cloud = template_cloud("cluttered", 8, density=50.0)
        config = ScanSimConfig(n_v=6)
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        poses = sample_camera_poses(cloud, plan, config, RandomStream(3))
        prev = np.zeros(cloud.n, dtype=bool)
        for k in range(1, len(poses) + 1):
            mask = visible_union_mask(cloud, poses[:k], config)
            assert (prev & ~mask).sum() == 0
            prev = mask

    def test_deterministic(self):
        cloud = template_cloud("one_occluder", 9, density=60.0)
        a = scan_and_jitter(cloud, ScanSimConfig(), TOY_STRUCTURAL, RandomStream(4))
        b = scan_and_jitter(cloud, ScanSimConfig(), TOY_STRUCTURAL, RandomStream(4))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.labels, b.labels)


class TestJitter:
    def test_zero_is_identity(self, taxonomy):
        cloud = LabeledPointCloud(np.ones((5, 3)), np.zeros(5, dtype=int), taxonomy)
        out = jitter_points(cloud, 0.0, RandomStream(0))
        assert out.positions is cloud.positions

    def test_bound_holds(self):
        cloud = template_cloud("empty_room", 10, density=60.0)
        out = jitter_points(cloud, 0.01, RandomStream(1))
        assert np.abs(out.positions - cloud.positions).max() <= 0.01
        assert np.array_equal(out.labels, cloud.labels)

    def test_displacement_statistics(self, taxonomy):
        n = 333_334  # > 1e6 coordinate draws
        cloud = LabeledPointCloud(np.zeros((n, 3)), np.zeros(n, dtype=int), taxonomy)
        out = jitter_points(cloud, 0.01, RandomStream(2))
        d = out.positions
        assert abs(d.mean()) <= 1e-4
        assert d.min() >= -0.01 and d.max() <= 0.01


def two_pass_visible_points(cloud, pose, config, fov=None):
    """Reference: visible_points as it was when the FOV mask and the depth
    buffer each projected the cloud into the camera frame on their own (the
    second time over the in-FOV subset only). The one-pass version must
    match it bit for bit."""
    fov = fov or config.fov

    def components(c):
        f, up, right = camera_frame(pose)
        q = c.positions - pose.position
        return q @ f, q @ up, q @ right

    qf, qu, qr = components(cloud)
    if fov.mode == "fixed":
        az = np.degrees(np.arctan2(qr, qf))
        el = np.degrees(np.arctan2(qu, np.hypot(qf, qr)))
        mask = (np.abs(az) <= fov.alpha_h / 2) & (np.abs(el) <= fov.alpha_v / 2)
    else:
        th = np.tan(np.radians(fov.alpha_h / 2))
        tv = np.tan(np.radians(fov.alpha_v / 2))
        if fov.mode == "perspective":
            mask = (qf > 0) & (np.abs(qr) <= qf * th) & (np.abs(qu) <= qf * tv)
        else:
            mask = (qf > 0) & (np.abs(qr) <= fov.d_ref * th) & (np.abs(qu) <= fov.d_ref * tv)
    idx = np.flatnonzero(mask)
    out = np.zeros(cloud.n, dtype=bool)
    if len(idx) == 0:
        return out
    qf, qu, qr = components(cloud.select(idx))
    r = np.sqrt(qf * qf + qu * qu + qr * qr)
    az = np.degrees(np.arctan2(qr, qf))
    el = np.degrees(np.arctan2(qu, np.hypot(qf, qr)))
    a_bin = np.floor(az / config.theta_bin).astype(np.int64)
    e_bin = np.floor(el / config.theta_bin).astype(np.int64)
    key = a_bin * (2 ** 20) + e_bin
    _, inverse = np.unique(key, return_inverse=True)
    nearest = np.full(inverse.max() + 1, np.inf)
    np.minimum.at(nearest, inverse, r)
    out[idx[r <= nearest[inverse] + config.eps_d]] = True
    return out


def random_poses(gen, lo, hi, k):
    poses = []
    while len(poses) < k:
        v, h = gen.uniform(lo, hi, size=(2, 3))
        if np.hypot(*(h - v)[:2]) > 1e-3:
            poses.append(CameraPose(v, h))
    return poses


class TestOneProjectionEquivalence:
    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_clouds(self, mode, seed):
        gen = RandomStream(100 + seed)
        n = [500, 4_500, 12_000][seed]
        cloud = LabeledPointCloud(gen.uniform(0, 4, size=(n, 3)), np.zeros(n, dtype=int), TOY_TAXONOMY)
        config = ScanSimConfig(fov=FovConfig(120.0, 70.0, mode, d_ref=1.5), theta_bin=1.0)
        for pose in random_poses(gen, 0.0, 4.0, 6):
            got = visible_points(cloud, pose, config)
            assert np.array_equal(got, two_pass_visible_points(cloud, pose, config))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projected_values(self, seed):
        # the masks above only see the projection through comparisons; the
        # camera-frame components and angles themselves must match too
        gen = RandomStream(200 + seed)
        n = [500, 4_500, 12_000][seed]
        cloud = LabeledPointCloud(gen.uniform(0, 4, size=(n, 3)), np.zeros(n, dtype=int), TOY_TAXONOMY)
        for pose in random_poses(gen, 0.0, 4.0, 6):
            f, up, right = camera_frame(pose)
            q = cloud.positions - pose.position
            want = (q @ f, q @ up, q @ right)
            got = _camera_components(cloud, pose)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            # a full view keeps every point, so its angles are every point's
            idx, az, el, q = scansim._in_fov(*got, FovConfig(360.0, 180.0))
            assert np.array_equal(idx, np.arange(n))
            for a, b in zip(q, want):
                assert a.tobytes() == b.tobytes()
            assert np.array_equal(az, np.degrees(np.arctan2(want[2], want[0])))
            assert np.array_equal(el, np.degrees(np.arctan2(want[1], np.hypot(want[0], want[2]))))

    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_scene_with_duplicate_points(self, mode):
        base = template_cloud("cluttered", 11, density=40.0)
        cloud = LabeledPointCloud(
            np.concatenate([base.positions, base.positions[::3]]),
            np.concatenate([base.labels, base.labels[::3]]),
            TOY_TAXONOMY,
        )
        config = ScanSimConfig(fov=FovConfig(150.0, 80.0, mode))
        poses = sample_camera_poses(cloud, plan_scan(cloud, config, TOY_STRUCTURAL), config, RandomStream(6))
        for pose in poses:
            got = visible_points(cloud, pose, config)
            assert np.array_equal(got, two_pass_visible_points(cloud, pose, config))

    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_single_point(self, mode):
        pose = CameraPose(np.array([0.0, 0.0, 1.0]), np.array([3.0, 0.5, 1.0]))
        config = ScanSimConfig(fov=FovConfig(90.0, 60.0, mode))
        for p in ([2.0, 0.1, 1.1], [-2.0, 0.0, 1.0]):       # in view, behind
            cloud = LabeledPointCloud(np.array([p]), np.array([0]), TOY_TAXONOMY)
            got = visible_points(cloud, pose, config)
            assert np.array_equal(got, two_pass_visible_points(cloud, pose, config))


class TestScanPlan:
    def test_reused_plan_matches_fresh_draws(self):
        cloud = template_cloud("cluttered", 12, density=50.0)
        config = ScanSimConfig()
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        with_plan, fresh = RandomStream(21), RandomStream(21)
        for _ in range(6):
            a = scan_and_jitter(cloud, config, TOY_STRUCTURAL, with_plan, plan)
            b = scan_and_jitter(cloud, config, TOY_STRUCTURAL, fresh)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.labels, b.labels)

    def test_matches_bev_and_pose_rules(self):
        cloud = empty_room_cloud()
        config = ScanSimConfig(bev_cell=0.5, clearance=0.8)
        plan = plan_scan(cloud, config, TOY_STRUCTURAL)
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        assert np.array_equal(plan.bev.blocked, bev.blocked)
        # the clearance drops the free cells next to the blocked ring
        assert set(map(tuple, plan.free)) == {(i, j) for i in range(2, 6) for j in range(2, 6)}
        assert np.array_equal(plan.wall_idx, np.flatnonzero(cloud.labels == 2))
        z = cloud.positions[:, 2]
        assert (plan.z_lo, plan.z_max) == (z.min() + 0.5 * (z.max() - z.min()), z.max())

    def test_errors_in_order(self):
        t = np.arange(0.25, 4.0, 0.5)
        gx, gy = np.meshgrid(t, t, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        config = ScanSimConfig(bev_cell=0.5)
        solid = LabeledPointCloud(grid, np.full(len(grid), 3), TOY_TAXONOMY)
        floor_only = LabeledPointCloud(grid, np.zeros(len(grid), dtype=int), TOY_TAXONOMY)
        for cloud, error in ((solid, NoFreeSpaceError), (floor_only, NoWallPointsError)):
            with pytest.raises(error):
                plan_scan(cloud, config, TOY_STRUCTURAL)
            with pytest.raises(error):
                scan_and_jitter(cloud, config, TOY_STRUCTURAL, RandomStream(0))
        with pytest.raises(NoFreeSpaceError, match="clearance"):
            plan_scan(empty_room_cloud(), ScanSimConfig(bev_cell=0.5, clearance=5.0), TOY_STRUCTURAL)


def reference_free_cells(cloud, config):
    """The free cells plan_scan keeps, from a tree over every blocking point."""
    bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
    free = bev.free_cells()
    blocking = (cloud.labels != TOY_STRUCTURAL.floor) & (cloud.labels != TOY_STRUCTURAL.ceiling)
    if config.clearance > 0 and blocking.any():
        dist, _ = cKDTree(cloud.positions[blocking, :2]).query(bev.cell_centers(free), k=1)
        free = free[dist > config.clearance]
    return free


def furnished_room(gen, cell):
    """A room at a random offset: a floor grid, walls on the perimeter and
    a few blocking points inside, so most interior cells stay free."""
    lo = gen.uniform(-3.0, 3.0, size=2)
    w, d = gen.uniform(2.0, 4.0, size=2)
    fx, fy = np.meshgrid(np.arange(0.0, w, cell / 3), np.arange(0.0, d, cell / 3), indexing="ij")
    floor = np.column_stack([fx.ravel(), fy.ravel(), np.zeros(fx.size)])
    t = np.linspace(0.0, 1.0, 30)
    walls = np.concatenate([
        np.column_stack([t * w, np.zeros_like(t)]), np.column_stack([t * w, np.full_like(t, d)]),
        np.column_stack([np.zeros_like(t), t * d]), np.column_stack([np.full_like(t, w), t * d]),
    ])
    walls = np.column_stack([walls, np.full(len(walls), 1.0)])
    inside = gen.uniform(0.0, 1.0, size=(int(gen.integers(3, 25)), 3)) * [w, d, 1.0]
    pos = np.concatenate([floor, walls, inside]) + [lo[0], lo[1], 0.0]
    labels = np.concatenate([np.zeros(len(floor)), np.full(len(walls), 2), np.full(len(inside), 3)])
    return pos, labels.astype(int)


def plant_near_free_centres(gen, pos, labels, config, offsets):
    """One blocking point per offset j, about ``clearance`` from a distinct
    free cell's center: along an axis or a random direction, then moved j
    ulps along x. Points outside the room's x-y box are skipped."""
    cloud = LabeledPointCloud(pos, labels, TOY_TAXONOMY)
    bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
    centers = bev.cell_centers(bev.free_cells())
    lo, hi = pos[:, :2].min(axis=0), pos[:, :2].max(axis=0)
    planted = []
    for j, center in zip(offsets, centers[gen.permutation(len(centers))]):
        angle = 0.0 if j % 2 == 0 else gen.uniform(0.0, 2.0 * np.pi)
        p = center + config.clearance * np.array([np.cos(angle), np.sin(angle)])
        p[0] = p[0] + j * np.spacing(p[0])
        if (p > lo).all() and (p < hi).all():
            planted.append([p[0], p[1], 0.5])
    planted = np.array(planted).reshape(-1, 3)
    return np.concatenate([pos, planted]), np.concatenate([labels, np.full(len(planted), 3)])


def clearances(cell):
    """Below, at and above half a cell, around the (d - 0.5) * cell edges
    where the cell reach steps, and several cells wide."""
    edges = [0.5 * cell, 1.5 * cell, 2.5 * cell]
    around = [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]
    return [0.0, 0.2 * cell, 0.45 * cell, 0.8 * cell, 2.3 * cell, 3.7 * cell] + around


class TestClearanceFilter:
    @pytest.mark.parametrize("cell", [0.25, 0.3, 0.1])
    def test_matches_a_tree_over_every_blocking_point(self, cell):
        gen = RandomStream(int(cell * 1000))
        checked = dropped = 0
        for clearance in clearances(cell):
            config = ScanSimConfig(bev_cell=cell, clearance=float(clearance))
            for _ in range(3):
                pos, labels = furnished_room(gen, cell)
                pos, labels = plant_near_free_centres(gen, pos, labels, config, range(-3, 4))
                cloud = LabeledPointCloud(pos, labels, TOY_TAXONOMY)
                want = reference_free_cells(cloud, config)
                if len(want) == 0:
                    with pytest.raises(NoFreeSpaceError, match="clearance"):
                        plan_scan(cloud, config, TOY_STRUCTURAL)
                    continue
                got = plan_scan(cloud, config, TOY_STRUCTURAL).free
                assert np.array_equal(got, want)
                checked += 1
                dropped += len(compute_free_space_bev(cloud, config, TOY_STRUCTURAL).free_cells()) - len(want)
        assert checked > 30 and dropped > 100

    @pytest.mark.parametrize("name", ["cluttered", "tail_heavy"])
    def test_templates_match_the_reference(self, name):
        cloud = template_cloud(name, 4, density=60.0)
        for clearance in (0.1, 0.125, 0.3, 0.6):
            config = ScanSimConfig(clearance=clearance)
            assert np.array_equal(plan_scan(cloud, config, TOY_STRUCTURAL).free,
                                  reference_free_cells(cloud, config))

    def test_no_tree_below_half_a_cell(self, monkeypatch):
        # a point within clearance < bev_cell / 2 of a free center lies in that free cell
        cloud = template_cloud("cluttered", 5, density=185.0)
        config = ScanSimConfig()
        want = reference_free_cells(cloud, config)

        def no_tree(*args, **kwargs):
            raise AssertionError("plan_scan built a tree")

        monkeypatch.setattr(scansim, "cKDTree", no_tree)
        assert np.array_equal(plan_scan(cloud, config, TOY_STRUCTURAL).free, want)


def gathered_angle_visible_points(cloud, pose, config):
    """Reference: visible_points as it was, the fixed mode taking the
    angles of every point and gathering the in-view ones, the other modes
    taking the angles of the in-view points."""
    qf, qu, qr = _camera_components(cloud, pose)
    idx = np.flatnonzero(fov_mask(qf, qu, qr, config.fov))
    out = np.zeros(cloud.n, dtype=bool)
    if len(idx) == 0:
        return out
    if config.fov.mode == "fixed":
        az, el = (a[idx] for a in angles(qf, qu, qr))
    else:
        az, el = angles(qf[idx], qu[idx], qr[idx])
    qf, qu, qr = qf[idx], qu[idx], qr[idx]
    r = np.sqrt(qf * qf + qu * qu + qr * qr)
    a_bin = np.floor(az / config.theta_bin).astype(np.int64)
    e_bin = np.floor(el / config.theta_bin).astype(np.int64)
    key = a_bin * (e_bin.max() - e_bin.min() + 1) + (e_bin - e_bin.min())
    _, inverse = np.unique(key, return_inverse=True)
    nearest = np.full(inverse.max() + 1, np.inf)
    np.minimum.at(nearest, inverse, r)
    out[idx[r <= nearest[inverse] + config.eps_d]] = True
    return out


def assert_in_fov_gathers(cloud, pose, fov):
    # the in-view indices and their angles against the full-array
    # reference's mask and every point's angles, gathered
    q = _camera_components(cloud, pose)
    idx, az, el, gathered = scansim._in_fov(*q, fov)
    want = np.flatnonzero(fov_mask(*q, fov))
    assert np.array_equal(idx, want)
    for a, b in zip(gathered, q):
        assert a.tobytes() == b[want].tobytes()
    want_az, want_el = angles(*q)
    assert az.tobytes() == want_az[want].tobytes()
    assert el.tobytes() == want_el[want].tobytes()


class TestSubsetAngles:
    @pytest.mark.parametrize("density", [45.0, 185.0])
    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_templates_match_gathered_angles(self, mode, density):
        config = ScanSimConfig(fov=FovConfig(mode=mode))
        for k, name in enumerate(template_names()):
            cloud = template_cloud(name, 30 + k, density=density)
            plan = plan_scan(cloud, config, TOY_STRUCTURAL)
            for pose in sample_camera_poses(cloud, plan, config, RandomStream(k)):
                got = visible_points(cloud, pose, config)
                assert np.array_equal(got, gathered_angle_visible_points(cloud, pose, config))
                assert_in_fov_gathers(cloud, pose, config.fov)

    @pytest.mark.parametrize("alpha_h", [90.0, 100.0, 180.0, 181.0, 360.0])
    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_prefilter_keeps_points_rounded_onto_the_side_plane(self, mode, alpha_h):
        # looking along +x from the origin: right is -y, so the planted
        # points have qf = -1e-17 and -1e-16 exactly, and qr = 1
        pose = CameraPose(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        planted = np.array([[-1e-17, -1.0, 0.0], [-1e-16, -1.0, 0.0]])
        gen = np.random.default_rng(int(alpha_h))
        pos = np.concatenate([planted, gen.uniform(-3.0, 3.0, size=(2000, 3))])
        cloud = LabeledPointCloud(pos, np.zeros(len(pos), dtype=int), TOY_TAXONOMY)
        config = ScanSimConfig(fov=FovConfig(alpha_h, 90.0, mode))
        got = visible_points(cloud, pose, config)
        assert np.array_equal(got, gathered_angle_visible_points(cloud, pose, config))
        assert_in_fov_gathers(cloud, pose, config.fov)
        if mode == "fixed":
            in_view = visible_range_mask(cloud, pose, config.fov)[:2].tolist()
            # at 180 degrees -1e-17 rounds to an azimuth of 90.0, -1e-16 past it
            assert in_view == {90.0: [False, False], 100.0: [False, False],
                               180.0: [True, False]}.get(alpha_h, [True, True])


class TestCrossWrittenOut:
    def test_matches_np_cross_byte_for_byte(self):
        gen = RandomStream(41)
        for pose in random_poses(gen, -5.0, 5.0, 3000):
            f, up, right = camera_frame(pose)
            assert right.tobytes() == np.cross(f, up).tobytes()


def at_angles(r, az, el):
    """A point at range r, azimuth az and elevation el (degrees) from a
    camera at the origin looking along +x (right is -y, up is +z)."""
    az, el = np.radians(az), np.radians(el)
    return [r * np.cos(el) * np.cos(az), -r * np.cos(el) * np.sin(az), r * np.sin(el)]


def pair_binned_visible(cloud, pose, config):
    """visible_points with each depth-buffer bin named by its (azimuth,
    elevation) index pair instead of one integer key."""
    qf, qu, qr = _camera_components(cloud, pose)
    idx = np.flatnonzero(fov_mask(qf, qu, qr, config.fov))
    out = np.zeros(cloud.n, dtype=bool)
    if len(idx) == 0:
        return out
    qf, qu, qr = qf[idx], qu[idx], qr[idx]
    r = np.sqrt(qf * qf + qu * qu + qr * qr)
    az, el = angles(qf, qu, qr)
    bins = np.column_stack([np.floor(az / config.theta_bin), np.floor(el / config.theta_bin)])
    _, inverse = np.unique(bins, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    nearest = np.full(inverse.max() + 1, np.inf)
    np.minimum.at(nearest, inverse, r)
    out[idx[r <= nearest[inverse] + config.eps_d]] = True
    return out


class TestDepthBufferKey:
    def test_planted_pair_in_two_bins_stays_visible(self):
        config = ScanSimConfig(fov=FovConfig(alpha_h=180.0, alpha_v=180.0), theta_bin=1e-4)
        pose = CameraPose(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        far, near = at_angles(3.0, 5.5e-4, -59.99995), at_angles(1.0, 4.5e-4, 44.85765)
        cloud = LabeledPointCloud(np.array([far, near]), np.array([0, 0]), TOY_TAXONOMY)
        az, el = angles(*_camera_components(cloud, pose))
        a_bin = np.floor(az / config.theta_bin).astype(np.int64)
        e_bin = np.floor(el / config.theta_bin).astype(np.int64)
        assert a_bin.tolist() == [5, 4] and e_bin.tolist() == [-600000, 448576]
        # the key a_bin * 2**20 + e_bin puts both points in one bin
        assert (a_bin * 2 ** 20 + e_bin).tolist() == [4642880, 4642880]
        assert visible_points(cloud, pose, config).tolist() == [True, True]

    @pytest.mark.parametrize("theta_bin", [scansim._MIN_THETA_BIN, 1e-4, 0.01, 0.5, 5.0])
    def test_matches_bins_named_by_index_pairs(self, theta_bin):
        gen = np.random.default_rng(int(theta_bin * 1e6))
        cloud = LabeledPointCloud(gen.uniform(-3.0, 3.0, size=(3000, 3)), np.zeros(3000, dtype=int), TOY_TAXONOMY)
        for mode in ("fixed", "parallel", "perspective"):
            config = ScanSimConfig(fov=FovConfig(300.0, 170.0, mode), theta_bin=theta_bin)
            for pose in random_poses(gen, -0.5, 0.5, 3):
                want = pair_binned_visible(cloud, pose, config)
                assert np.array_equal(visible_points(cloud, pose, config), want)

    @pytest.mark.parametrize("theta_bin", [0.0, 1e-7, np.nan])
    def test_bins_finer_than_the_key_allows_rejected(self, theta_bin):
        with pytest.raises(ValueError, match="theta_bin"):
            ScanSimConfig(theta_bin=theta_bin)


def unique_calls(monkeypatch, fn, *args):
    """``fn(*args)`` and how many times it called np.unique."""
    calls = []
    real = np.unique

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(np, "unique", counting)
    try:
        return fn(*args), len(calls)
    finally:
        monkeypatch.undo()


class TestDenseDepthBuffer:
    # the buffer is a table over the bin-key span unless that span exceeds
    # _DENSE_BINS_PER_POINT bins per in-view point; both ways must give the
    # np.unique references' masks byte for byte
    @pytest.mark.parametrize("theta_bin", [scansim._MIN_THETA_BIN, 1e-3, 0.05])
    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_sparse_view_takes_the_sort(self, monkeypatch, mode, theta_bin):
        gen = np.random.default_rng(int(theta_bin * 1e6) + len(mode))
        pos = gen.uniform(-3.0, 3.0, size=(300, 3))
        cloud = LabeledPointCloud(pos, np.zeros(len(pos), dtype=int), TOY_TAXONOMY)
        config = ScanSimConfig(fov=FovConfig(170.0, 150.0, mode, d_ref=3.0), theta_bin=theta_bin, eps_d=0.5)
        for pose in random_poses(gen, -0.5, 0.5, 3):
            assert visible_range_mask(cloud, pose, config.fov).sum() > 20
            got, sorts = unique_calls(monkeypatch, visible_points, cloud, pose, config)
            assert sorts == 1
            assert got.tobytes() == two_pass_visible_points(cloud, pose, config).tobytes()
            assert got.tobytes() == gathered_angle_visible_points(cloud, pose, config).tobytes()

    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_dense_view_takes_the_table(self, monkeypatch, mode):
        config = ScanSimConfig(fov=FovConfig(mode=mode))
        for k, name in enumerate(("cluttered", "two_room")):
            cloud = template_cloud(name, 50 + k, density=185.0)
            plan = plan_scan(cloud, config, TOY_STRUCTURAL)
            for pose in sample_camera_poses(cloud, plan, config, RandomStream(k)):
                got, sorts = unique_calls(monkeypatch, visible_points, cloud, pose, config)
                assert sorts == 0
                assert got.tobytes() == gathered_angle_visible_points(cloud, pose, config).tobytes()

    @pytest.mark.parametrize("last_bin, sorts", [(191, 0), (192, 1)])
    def test_bound_is_bins_per_in_view_point(self, monkeypatch, last_bin, sorts):
        # three points in one elevation bin: a far one behind a near one in
        # azimuth bin 0, and one in bin last_bin, so the key spans
        # last_bin + 1 bins, against 64 * 3 = 192 allowed
        assert scansim._DENSE_BINS_PER_POINT == 64
        config = ScanSimConfig(fov=FovConfig(alpha_h=180.0, alpha_v=180.0), theta_bin=0.1)
        pose = CameraPose(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        pos = [at_angles(1.0, 0.05, 0.05), at_angles(3.0, 0.05, 0.05), at_angles(2.0, 0.1 * last_bin + 0.05, 0.05)]
        cloud = LabeledPointCloud(np.array(pos), np.zeros(3, dtype=int), TOY_TAXONOMY)
        got, calls = unique_calls(monkeypatch, visible_points, cloud, pose, config)
        assert calls == sorts
        assert got.tolist() == [True, False, True]


class TestColumnOffsets:
    @staticmethod
    def signed_zero_cloud(gen, n, offset):
        pos = offset + gen.normal(size=(n, 3))
        pos[gen.random((n, 3)) < 0.2] = 0.0
        pos[gen.random((n, 3)) < 0.2] = -0.0
        return pos

    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e7])
    def test_components_match_the_broadcast(self, offset):
        gen = np.random.default_rng(int(abs(offset)) % 1000)
        pos = self.signed_zero_cloud(gen, 2000, offset)
        cloud = LabeledPointCloud(pos, np.zeros(len(pos), dtype=int), TOY_TAXONOMY)
        for v in ([-0.0, 0.0, 1.0], [0.0, -0.0, -0.0], [offset + 0.5, -0.0, offset - 2.0]):
            pose = CameraPose(np.array(v), np.array(v) + gen.normal(size=3))
            q = pos - pose.position
            for got, axis in zip(_camera_components(cloud, pose), camera_frame(pose)):
                assert got.tobytes() == (q @ axis).tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_minus_matches_the_broadcast(self, k):
        gen = np.random.default_rng(k)
        for offset in (0.0, 1e6, -3e7):
            pos = self.signed_zero_cloud(gen, 500, offset)
            a = pos[:, :k]                            # strided, as _xy_cells gets it
            for v in (np.zeros(k), -np.zeros(k), offset + gen.normal(size=k)):
                assert scansim._minus(a, v).tobytes() == (a - v).tobytes()


@pytest.mark.parametrize("d_ref", [0.0, -1.0, np.nan])
def test_non_positive_d_ref_rejected(d_ref):
    with pytest.raises(ValueError, match="d_ref"):
        FovConfig(mode="parallel", d_ref=d_ref)
