"""Kernel micro-benchmarks for the localizer: one frame window of IMU
propagation, the stacked measurements, two iterated updates, one frame's
match path (reproject, gate, restore) and one whole
``LocalizationFilter.process_frame``.

Fixed synthetic inputs: a 20-sample window at 200 Hz (one 10 Hz camera
frame), and an update with 700 map matches (1 px pixel noise) plus a speed
measurement, from a prediction 5 cm / 3 mrad off the truth. The near update
has 20 points 0.5-3 m away and a prediction ~0.3 rad / 0.4 m off, where the
damped update halves steps that raise the cost. The match path takes 700
node matches, 20 % of them outliers, about a corridor frame's count; the
frame benchmark propagates such a window and updates from the same kind of
matches against a one-node map. Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_ieskf.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Pose, Rotation, so3_exp
from topoloc.ieskf import (
    ERR_DIM,
    FilterParams,
    LocalizationFilter,
    NoiseParams,
    NominalState,
    _stack_measurements,
    box_minus,
    box_plus,
    iterated_update,
    propagate,
)
from topoloc.matching import (
    CameraFrame,
    CorrespondenceSet,
    Matched3D2D,
    reproject_node_features,
    restore_3d,
    statistical_outlier_removal,
)
from topoloc.scenario import default_extrinsics
from topoloc.topomap import DepthImage, IntensityImage, TopologicalMap, TopoNode

N_SAMPLES = 20
IMU_DT_S = 0.005
N_MATCHES = 700
OUTLIER_FRACTION = 0.2
N_NEAR = 20
NEAR_SEED = 18
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


def imu_window(rng):
    """(N_SAMPLES, 7) IMU rows (t, ax, ay, az, wx, wy, wz) at 200 Hz from t = 0."""
    accel = np.array([0.3, 0.1, 9.81]) + rng.normal(0, 0.05, (N_SAMPLES, 3))
    gyro = np.array([0.0, 0.0, 0.2]) + rng.normal(0, 0.01, (N_SAMPLES, 3))
    return np.column_stack((IMU_DT_S * np.arange(N_SAMPLES), accel, gyro))


def update_problem():
    """(truth, prediction, covariance, matches, speed, extrinsics) of one update."""
    rng = np.random.default_rng(1)
    truth = moving_state()
    extr = default_extrinsics()
    cam = truth.pose() @ extr.inverse()
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
    speed = float(np.linalg.norm(truth.velocity))
    offset = np.zeros(ERR_DIM)
    offset[0:3] = [0.002, -0.001, 0.002]
    offset[3:6] = [0.03, -0.04, 0.01]
    pred = box_plus(truth, offset)
    return truth, pred, np.eye(ERR_DIM) * 1e-3, matches, speed, extr


def near_update_problem():
    """(prediction, covariance, matches, speed, extrinsics) of an update whose
    Gauss-Newton steps overshoot: N_NEAR points 0.5-3 m in front of the
    camera and a prediction about 0.3 rad / 0.4 m off, as in the tests'
    ``update_frame(near=True)``."""
    rng = np.random.default_rng(NEAR_SEED)
    truth = moving_state()
    extr = default_extrinsics()
    cam = truth.pose() @ extr.inverse()
    pts_cam = np.column_stack(
        [rng.normal(0, 1, N_NEAR), rng.normal(0, 1, N_NEAR), rng.uniform(0.5, 3.0, N_NEAR)]
    )
    px = np.column_stack(
        [
            INTR.fx * pts_cam[:, 0] / pts_cam[:, 2] + INTR.cx,
            INTR.fy * pts_cam[:, 1] / pts_cam[:, 2] + INTR.cy,
        ]
    ) + rng.normal(0, 1.0, (N_NEAR, 2))
    sigmas = np.array([0.3] * 3 + [0.4] * 3 + [0.1] * 12)
    pred = box_plus(truth, rng.normal(0, 1, ERR_DIM) * sigmas)
    mix = rng.normal(0, 1, (ERR_DIM, ERR_DIM))
    cov = (sigmas[:, None] * (mix @ mix.T / ERR_DIM + np.eye(ERR_DIM))) * sigmas
    speed = float(np.linalg.norm(truth.velocity))
    return pred, cov, Matched3D2D(cam.apply(pts_cam), px), speed, extr


def test_propagate(benchmark):
    imu = imu_window(np.random.default_rng(0))
    dt = np.full(N_SAMPLES, IMU_DT_S)
    cov = np.eye(ERR_DIM) * 1e-3
    state, new_cov = benchmark(propagate, moving_state(), cov, imu, dt, NoiseParams())
    assert np.isfinite(new_cov).all() and np.trace(new_cov) > np.trace(cov)


@pytest.mark.parametrize("jacobian", [True, False], ids=["jacobian", "residuals"])
def test_stack_measurements(benchmark, jacobian):
    _, pred, _, matches, speed, extr = update_problem()
    z, h, _, n_used, _, _ = benchmark(
        _stack_measurements, pred, matches, speed, extr, INTR, NoiseParams(), jacobian
    )
    assert n_used == N_MATCHES and len(z) == 2 * N_MATCHES + 3
    assert (h is not None) == jacobian


def test_iterated_update(benchmark):
    truth, pred, cov, matches, speed, extr = update_problem()
    state, _, diag = benchmark(
        iterated_update, pred, cov, matches, speed, extr, INTR, FilterParams()
    )
    assert diag.iterations >= 2
    assert np.linalg.norm(box_minus(state, truth)[3:6]) < np.linalg.norm(box_minus(pred, truth)[3:6])
    assert isinstance(state.rotation, Rotation)


def test_iterated_update_near(benchmark):
    pred, cov, matches, speed, extr = near_update_problem()
    _, _, diag = benchmark(iterated_update, pred, cov, matches, speed, extr, INTR, FilterParams())
    assert diag.step_rejected and diag.cost_final < diag.cost0


class FixedMatcher:
    """The same correspondences for every frame and node."""

    def __init__(self, matches: CorrespondenceSet):
        self.matches = matches

    def match(self, frame, node):
        return self.matches


N_OUTLIERS = 2 * (int(OUTLIER_FRACTION * N_MATCHES) // 2)


def wall_node_matches(rng, node_pose):
    """A node at ``node_pose`` looking at a wall 20 m away, and the pixels of
    a frame taken there: the node's pixels again with 1 px noise, the first
    N_OUTLIERS of them outliers, moved in opposite pairs so that they leave
    the mean-centred gate where the inliers are."""
    depth = DepthImage.from_dense(np.full((INTR.height, INTR.width), 20.0, np.float32))
    image = IntensityImage(np.zeros((INTR.height, INTR.width), np.uint8))
    node = TopoNode(0, depth, image, node_pose, 0.0, INTR)
    node_px = rng.uniform([0.0, 0.0], [INTR.width - 1.0, INTR.height - 1.0], (N_MATCHES, 2))
    cur_px = node_px + rng.normal(0, 1.0, node_px.shape)
    half = N_OUTLIERS // 2
    jump = rng.uniform(20.0, 200.0, (half, 2)) * rng.choice([-1.0, 1.0], (half, 2))
    cur_px[:half] += jump
    cur_px[half:N_OUTLIERS] -= jump
    return node, CorrespondenceSet(cur_px, node_px)


def test_match_path(benchmark):
    node_pose = Pose(so3_exp([0.0, 0.3, 0.0]), [5.0, 1.0, 0.0])
    node, matches = wall_node_matches(np.random.default_rng(3), node_pose)
    sigma_th_px = FilterParams().sigma_th_px

    def match_path():
        reprojected = reproject_node_features(node, matches, INTR, node.pose)
        return restore_3d(statistical_outlier_removal(reprojected, sigma_th_px))

    matched = benchmark(match_path)
    assert 0.9 * (N_MATCHES - N_OUTLIERS) <= len(matched) <= N_MATCHES - N_OUTLIERS


def test_process_frame(benchmark):
    rng = np.random.default_rng(2)
    extr = default_extrinsics()
    start, cov = moving_state(), np.eye(ERR_DIM) * 1e-3
    imu = imu_window(rng)
    frame = CameraFrame(IMU_DT_S * N_SAMPLES)
    predicted, _ = propagate(start, cov, imu, np.full(N_SAMPLES, IMU_DT_S), NoiseParams())
    node, matches = wall_node_matches(rng, predicted.pose() @ extr.inverse())
    topo = TopologicalMap(INTR)
    topo.insert_node(node)
    matcher = FixedMatcher(matches)
    speed = float(np.linalg.norm(predicted.velocity))
    filt = LocalizationFilter(INTR, extr, FilterParams())

    def reset():
        filt.state, filt.cov, filt.time = start.copy(), cov.copy(), 0.0
        return (imu, frame, speed, topo, matcher), {}

    state, _, diag = benchmark.pedantic(filt.process_frame, setup=reset, rounds=200)
    assert not diag.flags and diag.n_inliers >= 0.9 * (N_MATCHES - N_OUTLIERS)
    assert diag.converged and not diag.step_rejected
    assert np.linalg.norm(state.position - predicted.position) < 0.05
