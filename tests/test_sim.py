"""Synthetic worlds: analytic kinematics, sensor synthesis consistency, and
reference-map construction."""

import numpy as np
import pytest

from topoloc.errors import GenerationError
from topoloc.ieskf import NominalState, propagate_state
from topoloc.sim import (
    CorridorGeometry,
    SensorNoiseSpec,
    TrajectorySpec,
    build_reference_map,
    count_visible,
    frame_times,
    gen_world,
    synthesize_imu,
    synthesize_speed,
    validate_visibility,
)
from topoloc.scenario import default_extrinsics
from topoloc.topomap import map_point_global
from topoloc.geometry import project

CLEAN = SensorNoiseSpec()


def dead_reckon(world, rate):
    p0, v0, _, _ = world.eval(0.0)
    st = NominalState(
        rotation=p0.rotation, position=p0.translation, velocity=v0,
        bias_accel=np.zeros(3), bias_gyro=np.zeros(3), gravity=np.array([0, 0, -9.81]),
    )
    for s in synthesize_imu(world, CLEAN):
        st = propagate_state(st, s, 1.0 / rate)
    return st


class TestGenWorld:
    def test_straight_kinematics(self):
        spec = TrajectorySpec(shape="straight", duration_s=10.0, speed_mps=10.0,
                              imu_rate_hz=100.0, frame_rate_hz=10.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        start = world.poses[0].translation
        end = world.poses[-1].translation
        assert abs(np.linalg.norm(end - start) - 100.0) < 1e-9

    def test_circle_angular_rate(self):
        r, v = 25.0, 5.0
        spec = TrajectorySpec(shape="circle", duration_s=20.0, speed_mps=v,
                              imu_rate_hz=50.0, frame_rate_hz=10.0, seed=0, radius_m=r)
        world = gen_world(spec, landmark_count=50)
        np.testing.assert_allclose(np.abs(world.body_rates[:, 2]), v / r, atol=1e-12)
        speeds = np.linalg.norm(world.velocities, axis=1)
        np.testing.assert_allclose(speeds, v, atol=1e-12)

    def test_deterministic_per_seed(self):
        spec = TrajectorySpec(duration_s=5.0, seed=42)
        a = gen_world(spec, landmark_count=200)
        b = gen_world(spec, landmark_count=200)
        np.testing.assert_array_equal(a.landmarks, b.landmarks)
        np.testing.assert_array_equal(a.landmark_intensity, b.landmark_intensity)

    def test_corridor_holds_then_moves(self):
        spec = TrajectorySpec(shape="corridor-with-turns", duration_s=10.0,
                              speed_mps=8.0, hold_s=1.0, ramp_s=2.0, seed=0)
        world = gen_world(spec, landmark_count=100)
        pose_0, vel_0, _, _ = world.eval(0.5)
        assert np.linalg.norm(vel_0) == 0.0
        np.testing.assert_array_equal(pose_0.translation, world.poses[0].translation)
        _, vel_cruise, _, _ = world.eval(5.0)
        assert abs(np.linalg.norm(vel_cruise) - 8.0) < 0.2

    def test_sparse_window_respected(self):
        geo = CorridorGeometry(sparse_window=(30.0, 60.0), sparse_count=5)
        spec = TrajectorySpec(shape="straight", duration_s=12.0, speed_mps=10.0, seed=1)
        world = gen_world(spec, landmark_count=500, corridor=geo)
        x = world.landmarks[:, 0]  # straight path runs along +x
        inside = (x > 31.0) & (x < 59.0)
        assert inside.sum() <= 5


class TestImuSynthesis:
    def test_stationary_gravity_reaction(self):
        spec = TrajectorySpec(shape="corridor-with-turns", duration_s=2.0, hold_s=2.0,
                              ramp_s=0.5, imu_rate_hz=100.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        imu = synthesize_imu(world, CLEAN)[:50]
        np.testing.assert_allclose(imu[:, 1:4], np.tile([0.0, 0.0, 9.81], (50, 1)), atol=1e-12)
        np.testing.assert_allclose(imu[:, 4:7], np.zeros((50, 3)), atol=1e-12)

    def test_noiseless_propagation_reproduces_trajectory(self):
        spec = TrajectorySpec(shape="circle", duration_s=10.0, speed_mps=5.0,
                              imu_rate_hz=200.0, frame_rate_hz=10.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        st = dead_reckon(world, 200.0)
        truth, _, _, _ = world.eval(10.0)
        assert np.linalg.norm(st.position - truth.translation) < 1e-4
        assert st.rotation.angle_to(truth.rotation) < 1e-10

    def test_halving_dt_cuts_error_by_at_least_3_5(self):
        errs = []
        for rate in (100.0, 200.0):
            spec = TrajectorySpec(shape="circle", duration_s=20.0, speed_mps=5.0,
                                  imu_rate_hz=rate, frame_rate_hz=10.0, seed=0)
            world = gen_world(spec, landmark_count=50)
            st = dead_reckon(world, rate)
            truth, _, _, _ = world.eval(20.0)
            errs.append(np.linalg.norm(st.position - truth.translation))
        assert errs[0] / errs[1] >= 3.5

    def test_injected_gyro_bias_recovered_by_initialize(self):
        from topoloc.ieskf import FilterParams, initialize

        spec = TrajectorySpec(shape="corridor-with-turns", duration_s=2.0, hold_s=2.0,
                              imu_rate_hz=200.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        noise = SensorNoiseSpec(bias_gyro=[0.01, 0.0, 0.0])
        imu = synthesize_imu(world, noise)
        st, _ = initialize(world.poses[0], imu[:200], FilterParams())
        np.testing.assert_allclose(st.bias_gyro, [0.01, 0.0, 0.0], atol=1e-4)

    def test_bit_identical_streams_per_seed(self):
        spec = TrajectorySpec(duration_s=3.0, seed=9)
        noise = SensorNoiseSpec(sigma_accel=0.02, sigma_gyro=0.002, sigma_speed=0.1)
        w1, w2 = gen_world(spec, 100), gen_world(spec, 100)
        np.testing.assert_array_equal(synthesize_imu(w1, noise), synthesize_imu(w2, noise))
        np.testing.assert_array_equal(synthesize_speed(w1, noise), synthesize_speed(w2, noise))


class TestSpeedSynthesis:
    def test_constant_speed_circle(self):
        spec = TrajectorySpec(shape="circle", duration_s=10.0, speed_mps=7.0,
                              imu_rate_hz=100.0, frame_rate_hz=10.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        assert np.abs(synthesize_speed(world, CLEAN)[:, 1] - 7.0).max() < 1e-12

    def test_corridor_ramp_profile(self):
        spec = TrajectorySpec(shape="corridor-with-turns", duration_s=10.0,
                              speed_mps=8.0, hold_s=1.0, ramp_s=2.0,
                              frame_rate_hz=10.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        # rest, then ramp, then cruise; compare to the analytic body speed
        for t, vx in synthesize_speed(world, CLEAN).tolist():
            _, vel, _, _ = world.eval(t)
            assert abs(vx - np.linalg.norm(vel)) < 1e-9

    def test_rest_is_zero(self):
        spec = TrajectorySpec(shape="corridor-with-turns", duration_s=1.0, hold_s=1.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        assert synthesize_speed(world, CLEAN)[0, 1] == 0.0


class TestReferenceMap:
    def test_node_count_by_spacing(self):
        spec = TrajectorySpec(shape="straight", duration_s=10.0, speed_mps=10.0,
                              imu_rate_hz=100.0, seed=0)
        world = gen_world(spec, landmark_count=300)
        topo = build_reference_map(world, intr=_intr(), node_spacing_m=5.0)
        assert len(topo) == 21  # 0, 5, ..., 100 m

    def test_node_poses_are_exact_trajectory_samples(self):
        spec = TrajectorySpec(shape="straight", duration_s=5.0, speed_mps=10.0,
                              imu_rate_hz=100.0, seed=0)
        world = gen_world(spec, landmark_count=300)
        topo = build_reference_map(world, intr=_intr(), node_spacing_m=10.0)
        sample_positions = {tuple(p.translation) for p in world.poses}
        for node in topo.nodes:
            assert tuple(node.pose.translation) in sample_positions

    def test_depth_consistent_with_map_point_round_trip(self):
        spec = TrajectorySpec(shape="straight", duration_s=5.0, speed_mps=10.0,
                              imu_rate_hz=100.0, seed=3)
        world = gen_world(spec, landmark_count=500)
        intr = _intr()
        topo = build_reference_map(world, intr, 10.0, default_extrinsics())
        node = topo.nodes[0]
        rows, cols = np.nonzero(node.depth.valid_mask())
        rng = np.random.default_rng(0)
        pick = rng.choice(len(rows), size=min(50, len(rows)), replace=False)
        for i in pick:
            f = np.array([float(cols[i]), float(rows[i])])
            g = map_point_global(node, f)
            back = project(intr, node.pose.inverse().apply(g))
            np.testing.assert_allclose(back, f, atol=1e-6)

    def test_bad_spacing_rejected(self):
        spec = TrajectorySpec(duration_s=2.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        with pytest.raises(GenerationError):
            build_reference_map(world, _intr(), 0.0)


class TestVisibility:
    def test_validate_passes_on_default_corridor(self):
        spec = TrajectorySpec(duration_s=10.0, seed=1)
        world = gen_world(spec, landmark_count=2000)
        validate_visibility(world, _intr(), default_extrinsics(), frame_times(world), 20)

    def test_validate_fails_loudly_when_starved(self):
        spec = TrajectorySpec(duration_s=10.0, seed=1)
        world = gen_world(spec, landmark_count=2000)
        with pytest.raises(GenerationError):
            validate_visibility(world, _intr(), default_extrinsics(), frame_times(world), 10_000)

    def test_count_visible_is_positive_along_path(self):
        spec = TrajectorySpec(duration_s=10.0, seed=2)
        world = gen_world(spec, landmark_count=1500)
        extr = default_extrinsics()
        for t in frame_times(world)[::10]:
            assert count_visible(world, _intr(), extr, t) > 0


def _intr():
    from topoloc.geometry import CameraIntrinsics

    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
