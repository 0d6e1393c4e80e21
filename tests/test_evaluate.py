"""APE metric against constructed-error oracles."""

from dataclasses import asdict

import numpy as np
import pytest

from topoloc.errors import NoTimestampOverlap
from topoloc.evaluate import Trajectory, ape
from topoloc.geometry import Pose, Rotation, so3_exp

from conftest import random_pose


def make_traj(rng, n=50, dt=0.1):
    ts = np.arange(n) * dt
    return Trajectory(ts, [random_pose(rng) for _ in range(n)])


def test_identical_trajectories_zero_error():
    rng = np.random.default_rng(0)
    t = make_traj(rng)
    rep = ape(t, Trajectory(t.timestamps.copy(), list(t.poses)))
    assert rep.ape_t_m == 0.0
    assert rep.ape_r_rad < 1e-9
    assert rep.n_pairs == len(t)


def test_constant_offset():
    ts = np.arange(20) * 0.1
    truth = Trajectory(ts, [Pose(Rotation.identity(), [0.1 * k, 0, 0]) for k in range(20)])
    est = Trajectory(
        ts, [Pose(Rotation.identity(), [0.1 * k + 1.0, 0, 0]) for k in range(20)]
    )
    rep = ape(est, truth)
    assert abs(rep.ape_t_m - 1.0) < 1e-12
    assert rep.ape_r_rad < 1e-9
    # offset along the body x-axis of identity-rotation truth: longitudinal
    assert abs(rep.lon_m - 1.0) < 1e-12
    assert rep.lat_m < 1e-12


def test_constructed_rotation_error():
    rng = np.random.default_rng(1)
    ts = np.arange(30) * 0.1
    truth_poses = [random_pose(rng) for _ in range(30)]
    est_poses = []
    for p in truth_poses:
        axis = rng.normal(0, 1, 3)
        axis /= np.linalg.norm(axis)
        est_poses.append(Pose(p.rotation @ so3_exp(axis * 0.02), p.translation))
    rep = ape(Trajectory(ts, est_poses), Trajectory(ts, truth_poses))
    assert abs(rep.ape_r_rad - 0.02) < 1e-9
    assert rep.ape_t_m < 1e-12


def test_symmetry_under_argument_swap():
    rng = np.random.default_rng(2)
    a, b = make_traj(rng), make_traj(rng)
    r1, r2 = ape(a, b), ape(b, a)
    assert abs(r1.ape_t_m - r2.ape_t_m) < 1e-12
    assert abs(r1.ape_r_rad - r2.ape_r_rad) < 1e-9


def test_clamping_near_identity():
    ts = np.array([0.0])
    p = Pose(Rotation((1.0, 1e-12, 0.0, 0.0)), np.zeros(3))
    rep = ape(Trajectory(ts, [p]), Trajectory(ts, [Pose.identity()]))
    assert np.isfinite(rep.ape_r_rad)


def test_no_overlap_raises():
    rng = np.random.default_rng(3)
    a = Trajectory(np.arange(5) * 0.1, [random_pose(rng) for _ in range(5)])
    b = Trajectory(np.arange(5) * 0.1 + 100.0, [random_pose(rng) for _ in range(5)])
    with pytest.raises(NoTimestampOverlap):
        ape(a, b)


def test_association_each_truth_used_once():
    rng = np.random.default_rng(4)
    truth = Trajectory(np.array([0.0, 1.0]), [random_pose(rng) for _ in range(2)])
    est = Trajectory(np.array([0.0, 0.004, 1.0]), [random_pose(rng) for _ in range(3)])
    rep = ape(est, truth, max_dt=0.01)
    assert rep.n_pairs == 2  # the 0.004 estimate cannot reuse truth t=0


def test_series_shape_and_keys():
    rng = np.random.default_rng(5)
    t = make_traj(rng, n=10)
    rep = ape(t, t)
    assert len(rep.series) == rep.n_pairs == 10
    assert set(rep.series[0]) == {"t", "et", "er"}
    d = asdict(rep)
    assert set(d) == {"ape_t_m", "ape_r_rad", "lon_m", "lat_m", "n_pairs", "series"}
