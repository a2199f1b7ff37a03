"""Walk through the scan simulation step by step.

A clean simulated room is turned into something that looks scanned:
cameras are placed in free space, each camera sees a field of view, hidden
points are removed with a spherical depth buffer, and the survivors get
jittered. Run:

    python demos/02_scan_simulation.py
"""

from pathlib import Path

import numpy as np

from scanmix import (
    FileFormat,
    RandomStream,
    ScanSimConfig,
    TOY_STRUCTURAL,
    TOY_TAXONOMY,
    generate_scene,
    jitter_points,
    make_template,
    plan_scan,
    sample_camera_poses,
    visible_points,
    visible_union_mask,
    write_point_file,
)

out = Path("demo_output/scan")
out.mkdir(parents=True, exist_ok=True)

rng = RandomStream(7)
spec = make_template("cluttered", rng, density=120.0)
cloud = generate_scene(spec, TOY_TAXONOMY, rng)
print(f"Clean scene: {cloud.n} points")

config = ScanSimConfig()  # 4 cameras, 180 x 90 degree fixed field of view
plan = plan_scan(cloud, config, TOY_STRUCTURAL)
bev = plan.bev
print(f"Bird's-eye grid {bev.shape}: {len(bev.free_cells())} free cells of {bev.blocked.size}")

poses = sample_camera_poses(cloud, plan, config, rng)
for i, pose in enumerate(poses):
    mask = visible_points(cloud, pose, config)
    print(
        f"  camera {i}: position ({pose.position[0]:.2f}, {pose.position[1]:.2f}, "
        f"{pose.position[2]:.2f}) sees {mask.sum()} points"
    )

union = visible_union_mask(cloud, poses, config)
scanned = cloud.select(union)
print(f"Union of all cameras: {scanned.n} points ({scanned.n / cloud.n:.0%} retained)")

noisy = jitter_points(scanned, config.delta_p, rng)
disp = np.abs(noisy.positions - scanned.positions).max()
print(f"Jitter: max per-coordinate displacement {disp:.4f} m (bound {config.delta_p})")

write_point_file(cloud, out / "clean.ply", FileFormat.PLY_BINARY_LE)
write_point_file(noisy, out / "scanned.ply", FileFormat.PLY_BINARY_LE)
print(f"\nWrote clean.ply and scanned.ply to {out}/ for side-by-side viewing.")
