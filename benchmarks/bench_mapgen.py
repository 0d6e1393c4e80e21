"""Kernel micro-benchmarks for the map compiler: rotation RANSAC and PnP.

One fixed synthetic frame: 1200 render-frame points seen by a camera that is
rotated by ~3 deg and moved by 0.2 m, 0.5 px pixel noise, 20 % of the pixels
replaced by uniform outliers. Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_mapgen.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Pose, so3_exp
from topoloc.mapgen import rotation_ransac, solve_pnp
from topoloc.matching import Matched3D2D

N_MATCHES = 1200
OUTLIER_FRACTION = 0.2
INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.normal(0, 4, N_MATCHES), rng.normal(0, 2, N_MATCHES), rng.uniform(4, 60, N_MATCHES)]
    )
    view = Pose(so3_exp(np.deg2rad([1.0, -2.5, 1.5])), [0.1, -0.05, 0.15])
    q = view.apply(pts)
    px = np.column_stack(
        [INTR.fx * q[:, 0] / q[:, 2] + INTR.cx, INTR.fy * q[:, 1] / q[:, 2] + INTR.cy]
    )
    px += rng.normal(0, 0.5, px.shape)
    n_out = int(OUTLIER_FRACTION * N_MATCHES)
    px[:n_out] = rng.uniform([0, 0], [INTR.width, INTR.height], (n_out, 2))
    return Matched3D2D(pts, px)


def test_rotation_ransac(benchmark, frame):
    kept = benchmark(rotation_ransac, frame, INTR, iterations=500, threshold_px=10.0, seed=1)
    assert len(kept) >= 0.75 * N_MATCHES


def test_solve_pnp(benchmark, frame):
    inliers = rotation_ransac(frame, INTR, iterations=500, threshold_px=10.0, seed=1)
    result = benchmark(solve_pnp, inliers, INTR)
    assert result.rms_px < 1.0
