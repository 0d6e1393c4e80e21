"""Kernel micro-benchmarks for the localizer: one frame window of IMU
propagation and one iterated update.

Fixed synthetic inputs: a 20-sample window at 200 Hz (one 10 Hz camera
frame), and an update with 700 map matches (1 px pixel noise) plus a speed
measurement, from a prediction 5 cm / 3 mrad off the truth. Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_ieskf.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Rotation, so3_exp
from topoloc.ieskf import (
    ERR_DIM,
    FilterParams,
    NoiseParams,
    NominalState,
    SpeedSample,
    box_minus,
    box_plus,
    iterated_update,
    propagate_window,
)
from topoloc.matching import Matched3D2D
from topoloc.scenario import default_extrinsics

N_SAMPLES = 20
IMU_DT_S = 0.005
N_MATCHES = 700
INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def moving_state() -> NominalState:
    return NominalState(
        rotation=so3_exp(np.array([0.01, -0.02, 0.4])),
        position=np.array([12.0, -3.0, 1.5]),
        velocity=np.array([7.0, 2.5, 0.0]),
        bias_accel=np.array([0.02, -0.01, 0.015]),
        bias_gyro=np.array([0.001, -0.0005, 0.0008]),
        gravity=np.array([0.0, 0.0, -9.81]),
    )


def test_propagate_window(benchmark):
    rng = np.random.default_rng(0)
    accel = np.array([0.3, 0.1, 9.81]) + rng.normal(0, 0.05, (N_SAMPLES, 3))
    gyro = np.array([0.0, 0.0, 0.2]) + rng.normal(0, 0.01, (N_SAMPLES, 3))
    dt = np.full(N_SAMPLES, IMU_DT_S)
    cov = np.eye(ERR_DIM) * 1e-3
    state, new_cov = benchmark(
        propagate_window, moving_state(), cov, accel, gyro, dt, NoiseParams()
    )
    assert np.isfinite(new_cov).all() and np.trace(new_cov) > np.trace(cov)


def test_iterated_update(benchmark):
    rng = np.random.default_rng(1)
    truth = moving_state()
    extr = default_extrinsics()
    cam = extr.camera_pose(truth)
    pts_cam = np.column_stack(
        [rng.normal(0, 4, N_MATCHES), rng.normal(0, 2, N_MATCHES), rng.uniform(4, 60, N_MATCHES)]
    )
    px = np.column_stack(
        [
            INTR.fx * pts_cam[:, 0] / pts_cam[:, 2] + INTR.cx,
            INTR.fy * pts_cam[:, 1] / pts_cam[:, 2] + INTR.cy,
        ]
    ) + rng.normal(0, 1.0, (N_MATCHES, 2))
    matches = Matched3D2D(cam.apply(pts_cam), px)
    speed = SpeedSample(0.0, float(np.linalg.norm(truth.velocity)))
    offset = np.zeros(ERR_DIM)
    offset[0:3] = [0.002, -0.001, 0.002]
    offset[3:6] = [0.03, -0.04, 0.01]
    pred = box_plus(truth, offset)
    cov = np.eye(ERR_DIM) * 1e-3
    state, _, diag = benchmark(
        iterated_update, pred, cov, matches, speed, extr, INTR, FilterParams()
    )
    assert diag.iterations >= 2
    assert np.linalg.norm(box_minus(state, truth)[3:6]) < np.linalg.norm(offset[3:6])
    assert isinstance(state.rotation, Rotation)
