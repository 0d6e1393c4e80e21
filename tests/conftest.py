import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Pose, so3_exp
from topoloc.ieskf import NominalState
from topoloc.scenario import default_extrinsics


@pytest.fixture
def intr():
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture
def forward_extrinsics():
    """Forward-looking camera mounted slightly ahead of and above the IMU."""
    return default_extrinsics()


def random_rotation(rng, scale=1.0):
    return so3_exp(rng.normal(0.0, scale, 3))


def random_pose(rng, t_scale=10.0, r_scale=1.0):
    return Pose(random_rotation(rng, r_scale), rng.normal(0.0, t_scale, 3))


def imu_row(t, accel, gyro) -> np.ndarray:
    """One IMU row (t, ax, ay, az, wx, wy, wz)."""
    return np.concatenate(([t], accel, gyro)).astype(float)


def random_state(rng):
    return NominalState(
        rotation=random_rotation(rng),
        position=rng.normal(0.0, 10.0, 3),
        velocity=rng.normal(0.0, 3.0, 3),
        bias_accel=rng.normal(0.0, 0.05, 3),
        bias_gyro=rng.normal(0.0, 0.01, 3),
        gravity=np.array([0.0, 0.0, -9.81]) + rng.normal(0.0, 0.05, 3),
    )
