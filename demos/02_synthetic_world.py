"""
Synthetic worlds and sensor streams
===================================

Generate a corridor world with an analytic trajectory, synthesize IMU and
wheel-speed streams, and check that noiseless IMU samples integrate back to
the exact trajectory.
"""

import numpy as np

from topoloc import (
    NominalState,
    SensorNoiseSpec,
    TrajectorySpec,
    gen_world,
    synthesize_imu,
    synthesize_speed,
)
from topoloc.ieskf import propagate_state

spec = TrajectorySpec(
    shape="corridor-with-turns",
    duration_s=30.0,
    speed_mps=8.0,
    imu_rate_hz=200.0,
    frame_rate_hz=10.0,
    seed=7,
)
world = gen_world(spec, landmark_count=2000)
print(f"world: {len(world.landmarks)} landmarks along {world.arc_lengths[-1]:.0f} m of path")
print(f"trajectory samples: {len(world.times)} at {spec.imu_rate_hz:.0f} Hz")

# sensors with realistic noise and constant true biases
noise = SensorNoiseSpec(
    sigma_accel=0.02,
    sigma_gyro=0.002,
    bias_accel=[0.02, -0.01, 0.015],
    bias_gyro=[0.001, -0.0005, 0.0008],
    sigma_speed=0.1,
)
imu = synthesize_imu(world, noise)  # rows (t, ax, ay, az, wx, wy, wz)
speed = synthesize_speed(world, noise)  # rows (t, vx)
print(f"imu samples: {len(imu)}, speed samples: {len(speed)}")
print("first imu sample (stationary hold):", np.round(imu[0, 1:4], 3), np.round(imu[0, 4:7], 4))

# noiseless samples propagate back to the analytic trajectory (O(dt^2))
clean = synthesize_imu(world, SensorNoiseSpec())
state = NominalState.identity()
p0, v0, _, _ = world.eval(0.0)
state.rotation, state.position, state.velocity = p0.rotation, p0.translation, v0
for s in clean:
    state = propagate_state(state, s, 1.0 / spec.imu_rate_hz)
truth, _, _, _ = world.eval(spec.duration_s)
print(
    "noiseless dead-reckoning error after 30 s:",
    f"{np.linalg.norm(state.position - truth.translation) * 1000:.3f} mm",
)
