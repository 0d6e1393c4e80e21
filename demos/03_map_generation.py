"""
Topological map generation
==========================

Compile a point-cloud prior into a topological map: render the cloud at a
predicted pose, match render to camera image, lift matches to 3-D through the
render depth, reject outliers with rotation-only RANSAC, solve PnP, refine,
and chain the next prediction through odometry. The initial pose is perturbed
by half a meter and two degrees; the build recovers it on the first frame.
"""

import numpy as np

from topoloc import (
    MapGenParams,
    OdometrySequence,
    SyntheticMatcher,
    TrajectorySpec,
    gen_world,
    generate_map,
    so3_exp,
)
from topoloc.geometry import Pose
from topoloc.matching import CameraFrame
from topoloc.scenario import default_extrinsics, default_intrinsics
from topoloc.sim import frame_times
from topoloc.topomap import IntensityImage

intr = default_intrinsics()
extr = default_extrinsics()
spec = TrajectorySpec(
    shape="corridor-with-turns", duration_s=12.0, speed_mps=8.0,
    imu_rate_hz=100.0, frame_rate_hz=10.0, seed=7, turns=((30.0, 30.0, 4.0),),
)
world = gen_world(spec, landmark_count=2000)

ft = frame_times(world)
body_poses = world.poses_at(ft)
cam_to_body = extr.inverse()
cam_poses = [p @ cam_to_body for p in body_poses]
odo = OdometrySequence(ft, body_poses, cam_to_body)
matcher = SyntheticMatcher(
    world.landmarks, {t: c for t, c in zip(ft, cam_poses)}, intr,
    sigma_px=0.5, outlier_fraction=0.05, seed=17,
)
img = IntensityImage(np.zeros((intr.height, intr.width), np.uint8))
frames = [CameraFrame(timestamp=t, image=img) for t in ft]

rng = np.random.default_rng(0)
axis = rng.normal(0, 1, 3)
axis /= np.linalg.norm(axis)
perturbed_start = cam_poses[0] @ Pose(so3_exp(axis * np.deg2rad(2.0)), [0.3, -0.3, 0.2])

result = generate_map(
    world.point_cloud(), frames, odo, perturbed_start, intr, matcher, MapGenParams(seed=5)
)
print(f"accepted {result.n_accepted}/{len(frames)} frames")

errs_t, errs_r = [], []
truth = {round(t, 9): c for t, c in zip(ft, cam_poses)}
for node in result.map.nodes:
    c = truth[round(node.timestamp, 9)]
    errs_t.append(np.linalg.norm(node.pose.translation - c.translation))
    errs_r.append(node.pose.rotation.angle_to(c.rotation))
print(f"node position error:  mean {np.mean(errs_t)*1000:.2f} mm, worst {max(errs_t)*1000:.2f} mm")
print(f"node rotation error:  mean {np.mean(errs_r)*1000:.3f} mrad, worst {max(errs_r)*1000:.3f} mrad")
print("per-frame PnP RMS (px), first five:",
      [round(r.pnp_rms_px, 3) for r in result.reports[:5]])
