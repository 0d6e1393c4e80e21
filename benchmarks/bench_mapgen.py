"""Kernel micro-benchmarks for the map compiler: rotation RANSAC, PnP with
its DLT start and Jacobian, the renderer and one whole map-compiler frame.

Two fixed synthetic frames of 1200 render-frame points, 0.5 px pixel noise
and 20 % of the pixels replaced by uniform outliers:

* ``frame``: the camera is rotated by ~3 deg and moved by 0.2 m, so PnP's
  identity start is tens of px off and the DLT start is built;
* ``near_frame``: the camera is off by ~0.03 deg and 3 mm, as a prediction
  chained through odometry is, so the identity start reprojects under
  ``PNP_DLT_START_RMS_PX`` and no DLT runs.

The frame benchmarks run ``generate_map`` on one frame alone: it renders the
points as the cloud from the identity prediction, takes the pairs from a
matcher that returns them, lifts, runs RANSAC and PnP, and re-renders at the
refined pose. Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_mapgen.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Pose, project_points, so3_exp
from topoloc.mapgen import (
    PNP_DLT_START_RMS_PX,
    MapGenParams,
    OdometrySequence,
    PointCloud,
    _pnp_dlt,
    _pnp_jacobian,
    _reprojection_residual,
    generate_map,
    rasterize,
    rotation_ransac,
    solve_pnp,
)
from topoloc.matching import CameraFrame, CorrespondenceSet, Matched3D2D
from topoloc.topomap import IntensityImage

N_MATCHES = 1200
OUTLIER_FRACTION = 0.2
INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def make_frame(view: Pose) -> Matched3D2D:
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.normal(0, 4, N_MATCHES), rng.normal(0, 2, N_MATCHES), rng.uniform(4, 60, N_MATCHES)]
    )
    q = view.apply(pts)
    px = np.column_stack(
        [INTR.fx * q[:, 0] / q[:, 2] + INTR.cx, INTR.fy * q[:, 1] / q[:, 2] + INTR.cy]
    )
    px += rng.normal(0, 0.5, px.shape)
    n_out = int(OUTLIER_FRACTION * N_MATCHES)
    px[:n_out] = rng.uniform([0, 0], [INTR.width, INTR.height], (n_out, 2))
    return Matched3D2D(pts, px)


@pytest.fixture(scope="module")
def frame():
    return make_frame(Pose(so3_exp(np.deg2rad([1.0, -2.5, 1.5])), [0.1, -0.05, 0.15]))


@pytest.fixture(scope="module")
def near_frame():
    return make_frame(Pose(so3_exp(np.deg2rad([0.01, -0.025, 0.015])), [0.001, -0.0005, 0.0015]))


@pytest.fixture(scope="module")
def inliers(frame):
    return rotation_ransac(frame, INTR, iterations=500, threshold_px=10.0, seed=1)


@pytest.fixture(scope="module")
def near_inliers(near_frame):
    kept = rotation_ransac(near_frame, INTR, iterations=500, threshold_px=10.0, seed=1)
    assert _reprojection_residual(Pose.identity(), kept, INTR)[0] < PNP_DLT_START_RMS_PX
    return kept


def test_rotation_ransac(benchmark, frame):
    kept = benchmark(rotation_ransac, frame, INTR, iterations=500, threshold_px=10.0, seed=1)
    assert len(kept) >= 0.75 * N_MATCHES


def test_solve_pnp(benchmark, inliers):
    result = benchmark(solve_pnp, inliers, INTR)
    assert result.rms_px < 1.0


def test_solve_pnp_near_start(benchmark, near_inliers):
    result = benchmark(solve_pnp, near_inliers, INTR)
    assert result.rms_px < 1.0


def test_pnp_dlt(benchmark, inliers):
    pose = benchmark(_pnp_dlt, inliers, INTR)
    assert np.all(pose.apply(inliers.points)[:, 2] > 0)


def test_pnp_jacobian(benchmark, inliers):
    pose = solve_pnp(inliers, INTR).pose
    r_mat = pose.rotation.as_matrix()
    q = pose.apply(inliers.points)
    jac = benchmark(_pnp_jacobian, inliers.points, r_mat, q, INTR)
    assert jac.shape == (2 * len(inliers), 6)


def test_rasterize(benchmark, frame):
    cloud = PointCloud(frame.points, np.full(N_MATCHES, 128.0))
    _, depth = benchmark(rasterize, cloud, Pose.identity(), INTR)
    assert depth.valid_mask().sum() > 0.5 * N_MATCHES


class FixedMatcher:
    """Returns the same pairs for every frame and node."""

    def __init__(self, pairs: CorrespondenceSet):
        self.pairs = pairs

    def match(self, frame, node):
        return self.pairs


def run_frame(benchmark, frame):
    cloud = PointCloud(frame.points, np.full(N_MATCHES, 128.0))
    node_px, _ = project_points(INTR, frame.points)
    matcher = FixedMatcher(CorrespondenceSet(cur=frame.pixels, node=node_px))
    image = IntensityImage(np.zeros((INTR.height, INTR.width), dtype=np.uint8))
    odo = OdometrySequence([0.0], [Pose.identity()], Pose.identity())
    result = benchmark(
        generate_map,
        cloud,
        [CameraFrame(timestamp=0.0, image=image)],
        odo,
        Pose.identity(),
        INTR,
        matcher,
        MapGenParams(seed=1),
    )
    assert result.n_accepted == 1


def test_generate_map_frame(benchmark, frame):
    run_frame(benchmark, frame)


def test_generate_map_near_frame(benchmark, near_frame):
    run_frame(benchmark, near_frame)
