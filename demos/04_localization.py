"""
Tightly-coupled localization
============================

The full online loop: propagate the 18-DoF error-state filter through IMU
samples, retrieve the nearest map node, match, reject outliers with the
3-sigma displacement gate, restore 3-D map points, and run the iterated MAP
update with pixel and wheel-speed residuals. Compared against ground truth
and against IMU dead reckoning on the identical input.
"""

import numpy as np

from topoloc import (
    FilterParams,
    SensorNoiseSpec,
    SyntheticMatcher,
    Trajectory,
    TrajectorySpec,
    ape,
    build_reference_map,
    gen_world,
    synthesize_imu,
    synthesize_speed,
)
from topoloc.matching import CameraFrame
from topoloc.scenario import default_extrinsics, default_intrinsics, run_localization
from topoloc.sim import frame_times
from topoloc.topomap import NODE_SPACING_M, IntensityImage

intr = default_intrinsics()
extr = default_extrinsics()

spec = TrajectorySpec(
    shape="corridor-with-turns", duration_s=40.0, speed_mps=8.0,
    imu_rate_hz=200.0, frame_rate_hz=10.0, seed=11,
)
noise = SensorNoiseSpec(
    sigma_accel=0.02, sigma_gyro=0.002,
    bias_accel=[0.02, -0.01, 0.015], bias_gyro=[0.001, -0.0005, 0.0008],
    sigma_pixel=1.0, sigma_speed=0.1, outlier_fraction=0.2,
)
world = gen_world(spec, landmark_count=2500)
topo_map = build_reference_map(world, intr, NODE_SPACING_M, extrinsics=extr)
print(f"reference map: {len(topo_map)} nodes")

imu = synthesize_imu(world, noise)
speeds = synthesize_speed(world, noise)
ft = frame_times(world)
body_poses = world.poses_at(ft)
cam_to_body = extr.inverse()
matcher = SyntheticMatcher(
    world.landmarks, {t: p @ cam_to_body for t, p in zip(ft, body_poses)}, intr,
    sigma_px=noise.sigma_pixel, outlier_fraction=noise.outlier_fraction, seed=42,
)
img = IntensityImage(np.zeros((intr.height, intr.width), np.uint8))
frames = [CameraFrame(timestamp=t, image=img) for t in ft]

after_init = ft >= 1.0 - 1e-9
truth = Trajectory(ft[after_init], [p for p, keep in zip(body_poses, after_init) if keep])

run = run_localization(
    topo_map, imu, speeds, frames, matcher, world.poses[0], intr, extr, FilterParams()
)
rep = ape(run.trajectory(), truth)
print(f"filter:          APEt {rep.ape_t_m:.4f} m   APEr {rep.ape_r_rad:.5f} rad")

dr = run_localization(
    topo_map, imu, speeds, frames, matcher, world.poses[0], intr, extr,
    FilterParams(), dead_reckoning=True,
)
rep_dr = ape(dr.trajectory(), truth)
print(f"dead reckoning:  APEt {rep_dr.ape_t_m:.3f} m   ({rep_dr.ape_t_m / rep.ape_t_m:.0f}x worse)")

flagged = sum(1 for d in run.diagnostics if d.flags)
updated = [d for d in run.diagnostics if "no_update" not in d.flags]
not_converged = sum(1 for d in updated if not d.converged)
step_rejected = sum(1 for d in updated if d.step_rejected)
print(f"frames flagged: {flagged}/{len(run.diagnostics)}, "
      f"mean update iterations {np.mean([d.iterations for d in updated]):.2f}")
print(f"updates not converged: {not_converged}/{len(updated)}, "
      f"with a rejected step: {step_rejected}/{len(updated)}")
