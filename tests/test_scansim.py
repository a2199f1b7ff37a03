import math

import numpy as np
import pytest
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
    visibility_oracle,
    visible_points,
    visible_range_mask,
    visible_union_mask,
)
from scanmix.errors import DegeneratePoseError, NoFreeSpaceError, NoWallPointsError
from scanmix.scansim import camera_frame


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
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        poses = sample_camera_poses(cloud, bev, config, TOY_STRUCTURAL, RandomStream(0))
        assert len(poses) == 4
        z = cloud.positions[:, 2]
        z_lo = z.min() + 0.5 * (z.max() - z.min())
        free_centers = {tuple(c) for c in bev.cell_centers(bev.free_cells())}
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
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        assert len(bev.free_cells()) == 1
        poses = sample_camera_poses(cloud, bev, config, TOY_STRUCTURAL, RandomStream(3))
        xy = {(p.position[0], p.position[1]) for p in poses}
        assert len(xy) == 1
        assert all(np.array_equal(p.look_at, [0.1, 0.1, 1.0]) for p in poses)

    def test_no_wall_points(self):
        t = np.arange(0.25, 4.0, 0.5)
        gx, gy = np.meshgrid(t, t, indexing="ij")
        pos = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        cloud = LabeledPointCloud(pos, np.zeros(len(pos), dtype=int), TOY_TAXONOMY)
        config = ScanSimConfig(bev_cell=0.5)
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        with pytest.raises(NoWallPointsError):
            sample_camera_poses(cloud, bev, config, TOY_STRUCTURAL, RandomStream(0))

    def test_xy_uniform_over_free_cells(self):
        cloud = empty_room_cloud()
        config = ScanSimConfig(bev_cell=0.5, n_v=1)
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        free = bev.free_cells()
        centers = bev.cell_centers(free)
        lookup = {tuple(c): i for i, c in enumerate(centers)}
        counts = np.zeros(len(free))
        rng = RandomStream(12)
        n = 10_000
        for _ in range(n):
            pose = sample_camera_poses(cloud, bev, config, TOY_STRUCTURAL, rng)[0]
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
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        poses = sample_camera_poses(cloud, bev, config, TOY_STRUCTURAL, RandomStream(5))
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
        bev = compute_free_space_bev(cloud, config, TOY_STRUCTURAL)
        poses = sample_camera_poses(cloud, bev, config, TOY_STRUCTURAL, RandomStream(3))
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

    @pytest.mark.parametrize("mode", ["fixed", "parallel", "perspective"])
    def test_scene_with_duplicate_points(self, mode):
        base = template_cloud("cluttered", 11, density=40.0)
        cloud = LabeledPointCloud(
            np.concatenate([base.positions, base.positions[::3]]),
            np.concatenate([base.labels, base.labels[::3]]),
            TOY_TAXONOMY,
        )
        config = ScanSimConfig(fov=FovConfig(150.0, 80.0, mode))
        poses = sample_camera_poses(
            cloud, compute_free_space_bev(cloud, config, TOY_STRUCTURAL), config, TOY_STRUCTURAL, RandomStream(6)
        )
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
