"""
Speed aiding under feature starvation
=====================================

A corridor with a 360 m landmark-free stretch (8 landmarks total inside it)
starves the camera for 20 seconds. With wheel-speed residuals the filter
stays bounded; without them it dead-reckons through the gap and drifts.
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
from topoloc.sim import CorridorGeometry, count_visible, frame_times
from topoloc.topomap import IntensityImage

intr = default_intrinsics()
extr = default_extrinsics()

spec = TrajectorySpec(
    shape="corridor-with-turns", duration_s=27.0, speed_mps=8.0,
    imu_rate_hz=200.0, frame_rate_hz=10.0, seed=204, turns=((20.0, 60.0, 4.0),),
)
corridor = CorridorGeometry(sparse_window=(16.0, 376.0), sparse_count=8)
world = gen_world(spec, landmark_count=1500, corridor=corridor)

ft = frame_times(world)
starved = [t for t in ft if 4.0 <= t <= 24.0]
counts = [count_visible(world, intr, extr, t) for t in starved[::10]]
print(f"starved stretch: {starved[0]:.0f}-{starved[-1]:.0f} s, "
      f"visible landmarks per frame <= {max(counts)}")

noise = SensorNoiseSpec(
    sigma_accel=0.02, sigma_gyro=0.002,
    bias_accel=[0.02, -0.01, 0.015], bias_gyro=[0.001, -0.0005, 0.0008],
    sigma_pixel=1.0, sigma_speed=0.1, outlier_fraction=0.2,
)
imu = synthesize_imu(world, noise)
speeds = synthesize_speed(world, noise)
topo_map = build_reference_map(world, intr, 5.0, extr)
body_poses = world.poses_at(ft)
cam_to_body = extr.inverse()
matcher = SyntheticMatcher(
    world.landmarks, {t: p @ cam_to_body for t, p in zip(ft, body_poses)}, intr,
    sigma_px=1.0, outlier_fraction=0.2, seed=304,
)
img = IntensityImage(np.zeros((intr.height, intr.width), np.uint8))
frames = [CameraFrame(timestamp=t, image=img) for t in ft]
after_init = ft >= 1.0 - 1e-9
truth = Trajectory(ft[after_init], [p for p, keep in zip(body_poses, after_init) if keep])

for use_speed in (True, False):
    run = run_localization(
        topo_map, imu, speeds, frames, matcher, world.poses[0], intr, extr,
        FilterParams(), use_speed=use_speed,
    )
    rep = ape(run.trajectory(), truth)
    label = "with speed   " if use_speed else "without speed"
    print(f"{label}: APEt {rep.ape_t_m:.3f} m   APEr {rep.ape_r_rad:.5f} rad   "
          f"lon {rep.lon_m:.3f} m   lat {rep.lat_m:.3f} m")
