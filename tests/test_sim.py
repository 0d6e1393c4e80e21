"""Synthetic worlds: analytic kinematics, sensor synthesis consistency, and
reference-map construction."""

import numpy as np
import pytest

from topoloc.errors import GenerationError
from topoloc.ieskf import NominalState, propagate_state
from topoloc.sim import (
    GRAVITY_W,
    TRAJECTORY_SHAPES,
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
from topoloc.mapgen import NEAR_PLANE_M, rasterize
from topoloc.scenario import default_extrinsics
from topoloc.topomap import DEFAULT_MAX_RANGE_M, lift_pixels
from topoloc.geometry import Pose, Rotation, project, project_points, so3_log

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
        # 10 s at 10 m/s, less the 1 s hold and half the 2 s ramp
        assert abs(np.linalg.norm(end - start) - 80.0) < 1e-9

    def test_circle_angular_rate(self):
        # still for the 1 s hold; at v and v / r once the 2 s ramp is over
        r, v = 25.0, 5.0
        spec = TrajectorySpec(shape="circle", duration_s=20.0, speed_mps=v,
                              imu_rate_hz=50.0, frame_rate_hz=10.0, seed=0, radius_m=r)
        world = gen_world(spec, landmark_count=50)
        hold, cruise = world.times <= 1.0, world.times >= 3.0
        speeds = np.linalg.norm(world.velocities, axis=1)
        assert not speeds[hold].any() and not world.body_rates[hold].any()
        np.testing.assert_allclose(np.abs(world.body_rates[cruise, 2]), v / r, atol=1e-12)
        np.testing.assert_allclose(speeds[cruise], v, atol=1e-12)

    @pytest.mark.parametrize("shape", TRAJECTORY_SHAPES)
    def test_every_shape_holds_still_then_ramps(self, shape):
        # simulate's init_window_s is hold_s: the filter initializes on still IMU rows
        spec = TrajectorySpec(shape=shape, duration_s=6.0, speed_mps=8.0, hold_s=1.5, ramp_s=2.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        hold = world.times <= 1.5
        assert all(p.translation.tobytes() == world.poses[0].translation.tobytes() for p, h in zip(world.poses, hold) if h)
        assert not np.linalg.norm(world.velocities[hold], axis=1).any() and not world.body_rates[hold].any()
        imu = synthesize_imu(world, CLEAN)
        np.testing.assert_allclose(imu[imu[:, 0] < 1.5, 1:], np.tile([0.0, 0.0, 9.81, 0, 0, 0], (300, 1)), atol=1e-12)
        speeds = np.linalg.norm(world.velocities, axis=1)
        assert np.all(np.diff(speeds[(world.times > 1.5) & (world.times < 3.5)]) > 0)
        np.testing.assert_allclose(speeds[world.times >= 3.5], 8.0, atol=1e-12)

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
        # 0 in the 1 s hold, 7 once the 2 s ramp is over
        spec = TrajectorySpec(shape="circle", duration_s=10.0, speed_mps=7.0,
                              imu_rate_hz=100.0, frame_rate_hz=10.0, seed=0)
        world = gen_world(spec, landmark_count=50)
        t, vx = synthesize_speed(world, CLEAN).T
        assert not vx[t <= 1.0].any()
        assert np.abs(vx[t >= 3.0] - 7.0).max() < 1e-12

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
        assert len(topo) == 17  # 0, 5, ..., 80 m: the hold and the ramp cover 20 m less

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
        rows, cols = np.divmod(node.depth.index, intr.width)
        rng = np.random.default_rng(0)
        pick = rng.choice(len(rows), size=min(50, len(rows)), replace=False)
        for i in pick:
            f = np.array([float(cols[i]), float(rows[i])])
            pts, valid = lift_pixels(node, f)
            assert valid.tolist() == [True]
            g = node.pose.apply(pts[0])
            back = project(intr, node.pose.inverse().apply(g))
            np.testing.assert_allclose(back, f, atol=1e-6)

    def test_nodes_store_the_render_at_their_pose(self):
        # each node's intensity is the render's at the pixels its depth stores,
        # and the render is 0 everywhere else; nodes share no memory
        spec = TrajectorySpec(shape="straight", duration_s=5.0, speed_mps=10.0,
                              imu_rate_hz=100.0, seed=3)
        world = gen_world(spec, landmark_count=500)
        intr = _intr()
        topo = build_reference_map(world, intr, 10.0, default_extrinsics())
        assert len(topo) == 4  # 0, 10, 20, 30 m
        for i, node in enumerate(topo.nodes):
            inten, depth = rasterize(world.point_cloud(), node.pose, intr)
            np.testing.assert_array_equal(node.depth.index, depth.index)
            assert node.depth.depth.tobytes() == depth.depth.tobytes()
            assert node.intensity.tobytes() == inten.data.reshape(-1)[depth.index].tobytes()
            assert not np.delete(inten.data.reshape(-1), depth.index).any()
            for other in topo.nodes[i + 1 :]:
                assert not np.shares_memory(node.intensity, other.intensity)

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
        counts = count_visible(world, _intr(), default_extrinsics(), frame_times(world)[::10])
        assert len(counts) == 10
        assert (counts > 0).all()

    def test_count_visible_of_no_time_is_empty(self):
        world = gen_world(TrajectorySpec(duration_s=2.0, seed=2), landmark_count=50)
        assert len(count_visible(world, _intr(), default_extrinsics(), np.zeros(0))) == 0


def reference_count_in_view(world, intr, cam):
    """The per-frame visibility count that ``count_visible`` replaced."""
    pts_cam = cam.inverse().apply(world.landmarks)
    uv, front = project_points(intr, pts_cam, min_depth=NEAR_PLANE_M)
    ok = (
        front
        & (pts_cam[:, 2] < DEFAULT_MAX_RANGE_M)
        & (uv[:, 0] >= 0) & (uv[:, 0] <= intr.width - 1)
        & (uv[:, 1] >= 0) & (uv[:, 1] <= intr.height - 1)
    )
    return int(np.count_nonzero(ok))


# The perfbench corridor and mapgen worlds, and the criterion-4 world with its
# feature-starved window.
VISIBILITY_WORLDS = {
    "corridor": (TrajectorySpec(duration_s=60.0, seed=3), 2500, None),
    "mapgen": (
        TrajectorySpec(duration_s=12.0, imu_rate_hz=100.0, seed=7, turns=((30.0, 30.0, 4.0),)),
        2000,
        None,
    ),
    "sparse_window": (
        TrajectorySpec(duration_s=27.0, seed=204, turns=((20.0, 60.0, 4.0),)),
        1500,
        CorridorGeometry(sparse_window=(16.0, 376.0), sparse_count=8),
    ),
}


@pytest.mark.parametrize("name", sorted(VISIBILITY_WORLDS))
def test_count_visible_equals_per_frame_reference(name):
    spec, landmarks, corridor = VISIBILITY_WORLDS[name]
    world = gen_world(spec, landmark_count=landmarks, corridor=corridor)
    intr, extr = _intr(), default_extrinsics()
    ft = frame_times(world)
    cam_to_body = extr.inverse()
    want = [reference_count_in_view(world, intr, p @ cam_to_body) for p in world.poses_at(ft)]
    assert count_visible(world, intr, extr, ft).tolist() == want

    # validate_visibility names the first frame with the fewest landmarks
    worst = int(np.argmin(want))
    for min_count in (min(want) + 1, int(np.median(want)), max(want) + 1):
        message = (
            f"frame at t={ft[worst]:.2f} s sees only {want[worst]} landmarks "
            f"(minimum {min_count}); adjust the world configuration"
        )
        with pytest.raises(GenerationError) as err:
            validate_visibility(world, intr, extr, ft, min_count)
        assert str(err.value) == message
    validate_visibility(world, intr, extr, ft, min(want))


# ---------------------------------------------------------------------------
# Reference copies of the per-sample simulator the array code replaced: one
# scalar path state per time, the IMU rows from relative rotations of exact
# poses, and the speed rows one frame at a time. The array simulator must
# match them to rounding, noise draws included.

def reference_smoothstep5(x):
    if x <= 0.0:
        return 0.0, 0.0, 0.0
    if x >= 1.0:
        return 1.0, 0.0, 0.0
    v = x**3 * (10.0 - 15.0 * x + 6.0 * x * x)
    d1 = 30.0 * x * x * (1.0 - x) ** 2
    d2 = 60.0 * x * (1.0 - 3.0 * x + 2.0 * x * x)
    return v, d1, d2


class ReferenceArc:
    """Every path's arc length, speed and acceleration: held at 0, then a
    smoothstep speed ramp, then constant speed."""

    def __init__(self, spec):
        self.v = spec.speed_mps
        self.t0 = spec.hold_s
        self.tr = max(spec.ramp_s, 1e-6)

    def _arc(self, t):
        if t <= self.t0:
            return 0.0, 0.0, 0.0
        if t <= self.t0 + self.tr:
            x = (t - self.t0) / self.tr
            sv, sd1, sd2 = reference_smoothstep5(x)
            s = self.v * self.tr * (x**4 * (2.5 - 3.0 * x + x * x))
            return s, self.v * sv, self.v * sd1 / self.tr
        s_ramp = 0.5 * self.v * self.tr
        return s_ramp + self.v * (t - self.t0 - self.tr), self.v, 0.0


class ReferenceStraightPath(ReferenceArc):
    def state(self, t):
        s, sd, sdd = self._arc(t)
        return np.array([s, 0.0, 0.0]), np.array([sd, 0.0, 0.0]), np.array([sdd, 0.0, 0.0]), 0.0, 0.0


class ReferenceCirclePath(ReferenceArc):
    def __init__(self, spec):
        super().__init__(spec)
        self.r = spec.radius_m

    def state(self, t):
        s, sd, sdd = self._arc(t)
        a = s / self.r
        tangent = np.array([np.cos(a), np.sin(a), 0.0])
        normal = np.array([-np.sin(a), np.cos(a), 0.0])
        pos = self.r * np.array([np.sin(a), 1.0 - np.cos(a), 0.0])
        return pos, sd * tangent, sdd * tangent + sd * sd / self.r * normal, a, sd / self.r


class ReferenceCorridorPath(ReferenceArc):
    def __init__(self, spec):
        super().__init__(spec)
        self.turns = spec.turns

    def _lateral(self, s):
        lat = lat1 = lat2 = 0.0
        for s_start, length, amp in self.turns:
            x = (s - s_start) / length
            v, d1, d2 = reference_smoothstep5(x)
            lat += amp * v
            lat1 += amp * d1 / length
            lat2 += amp * d2 / length**2
        return lat, lat1, lat2

    def state(self, t):
        s, sd, sdd = self._arc(t)
        lat, lat1, lat2 = self._lateral(s)
        pos = np.array([s, lat, 0.0])
        vel = np.array([sd, lat1 * sd, 0.0])
        acc = np.array([sdd, lat2 * sd * sd + lat1 * sdd, 0.0])
        psi = np.arctan2(lat1, 1.0)
        psidot = lat2 / (1.0 + lat1 * lat1) * sd
        return pos, vel, acc, psi, psidot


REFERENCE_PATHS = {
    "straight": ReferenceStraightPath,
    "circle": ReferenceCirclePath,
    "corridor-with-turns": ReferenceCorridorPath,
}


def reference_eval(spec, t):
    pos, vel, acc, psi, psidot = REFERENCE_PATHS[spec.shape](spec).state(t)
    rot = Rotation((np.cos(0.5 * psi), 0.0, 0.0, np.sin(0.5 * psi)))
    return Pose(rot, pos), vel, acc, np.array([0.0, 0.0, psidot])


def reference_synthesize_imu(spec, noise):
    rate = spec.imu_rate_hz
    dt = 1.0 / rate
    n = int(round(spec.duration_s * rate))
    rng = np.random.default_rng([spec.seed, 23])
    sigma_a = noise.sigma_accel * np.sqrt(rate)
    sigma_g = noise.sigma_gyro * np.sqrt(rate)
    rows = np.empty((n, 7))
    pose0, vel0, _, _ = reference_eval(spec, 0.0)
    for k in range(n):
        pose1, vel1, _, _ = reference_eval(spec, (k + 1) * dt)
        w_m = so3_log(pose0.rotation.inverse() @ pose1.rotation) / dt + noise.bias_gyro
        a_m = pose0.rotation.inverse().apply((vel1 - vel0) / dt - GRAVITY_W) + noise.bias_accel
        if sigma_a > 0.0:
            a_m = a_m + rng.normal(0.0, sigma_a, 3)
        if sigma_g > 0.0:
            w_m = w_m + rng.normal(0.0, sigma_g, 3)
        rows[k, 0], rows[k, 1:4], rows[k, 4:7] = k * dt, a_m, w_m
        pose0, vel0 = pose1, vel1
    return rows


def reference_synthesize_speed(spec, noise):
    rate = spec.frame_rate_hz
    n = int(round(spec.duration_s * rate))
    rng = np.random.default_rng([spec.seed, 29])
    rows = np.empty((n, 2))
    for k in range(n):
        t = k / rate
        pose, vel, _, _ = reference_eval(spec, t)
        vx = float(abs(np.dot(vel, pose.rotation.apply(np.array([1.0, 0.0, 0.0])))))
        if noise.sigma_speed > 0.0:
            vx += float(rng.normal(0.0, noise.sigma_speed))
        rows[k] = t, vx
    return rows


REFERENCE_SPECS = {
    "straight": TrajectorySpec(shape="straight", duration_s=10.0, seed=4),
    "circle": TrajectorySpec(shape="circle", duration_s=20.0, speed_mps=6.0, seed=5),
    # long enough to pass the hold, the ramp, all of the first turn and the
    # start of the second
    "corridor-with-turns": TrajectorySpec(duration_s=25.0, seed=6),
}
REFERENCE_NOISE = {
    "off": SensorNoiseSpec(),
    "on": SensorNoiseSpec(
        sigma_accel=0.02, sigma_gyro=0.002, bias_accel=[0.02, -0.01, 0.015],
        bias_gyro=[0.001, -0.0005, 0.0008], sigma_speed=0.1,
    ),
    "gyro-only": SensorNoiseSpec(sigma_gyro=0.002),
}


def pose_arrays(poses):
    return np.array([p.translation for p in poses]), np.array([p.rotation.q for p in poses])


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape", TRAJECTORY_SHAPES)
class TestArraySimulatorMatchesReference:
    """The array simulator against the per-sample reference copies above,
    within 1e-9 on every sample."""

    def test_world_samples(self, shape):
        spec = REFERENCE_SPECS[shape]
        world = gen_world(spec, landmark_count=50)
        ref = [reference_eval(spec, t) for t in world.times]
        for got, want in zip(pose_arrays(world.poses), pose_arrays([r[0] for r in ref])):
            assert_close(got, want)
        assert_close(world.velocities, np.array([r[1] for r in ref]))
        assert_close(world.body_rates, np.array([r[3] for r in ref]))

    @pytest.mark.parametrize("noise", REFERENCE_NOISE)
    def test_sensor_rows(self, shape, noise):
        # with noise on, a changed draw order moves rows by sigma, not 1e-9
        spec, noise = REFERENCE_SPECS[shape], REFERENCE_NOISE[noise]
        world = gen_world(spec, landmark_count=50)
        assert_close(synthesize_imu(world, noise), reference_synthesize_imu(spec, noise))
        assert_close(synthesize_speed(world, noise), reference_synthesize_speed(spec, noise))

    def test_eval_off_grid(self, shape):
        # at rest, inside the ramp, mid first turn, and between IMU samples
        spec = REFERENCE_SPECS[shape]
        world = gen_world(spec, landmark_count=50)
        times = (0.0, 0.5, 1.7, 12.6, 20.00137)
        ref = [reference_eval(spec, t) for t in times]
        for got, want in zip(map(world.eval, times), ref):
            for a, b in zip(pose_arrays([got[0]]) + got[1:], pose_arrays([want[0]]) + want[1:]):
                assert_close(a, b)
        for got, want in zip(pose_arrays(world.poses_at(times)), pose_arrays([r[0] for r in ref])):
            assert_close(got, want)


def _intr():
    from topoloc.geometry import CameraIntrinsics

    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
