"""Synthetic worlds: analytic trajectories, IMU/speed synthesis, landmark
clouds, and ground-truth reference maps.

Trajectories are closed-form and twice continuously differentiable, so every
derivative fed to the sensor models is exact. All randomness flows from the
scenario seed; equal configs give bit-identical sensor streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError
from .geometry import CameraIntrinsics, Pose, Rotation, project_points, so3_log
from .mapgen import PointCloud, rasterize
from .topomap import TopologicalMap, TopoNode

GRAVITY_W = np.array([0.0, 0.0, -9.81])

TRAJECTORY_SHAPES = ("straight", "circle", "corridor-with-turns")


@dataclass
class TrajectorySpec:
    shape: str = "corridor-with-turns"
    duration_s: float = 60.0
    speed_mps: float = 8.0
    imu_rate_hz: float = 200.0
    frame_rate_hz: float = 10.0
    seed: int = 0
    # shape-specific knobs (ignored where not applicable)
    radius_m: float = 30.0  # circle
    hold_s: float = 1.0  # corridor: stationary lead-in
    ramp_s: float = 2.0  # corridor: speed ramp duration
    # corridor turns: (arc start m, arc length m, lateral amplitude m)
    turns: tuple = ((60.0, 50.0, 6.0), (170.0, 60.0, -8.0))

    def __post_init__(self):
        if self.shape not in TRAJECTORY_SHAPES:
            raise ValueError(f"unknown trajectory shape '{self.shape}'")
        if self.duration_s <= 0 or self.imu_rate_hz <= 0 or self.frame_rate_hz <= 0:
            raise ValueError("duration and rates must be positive")


@dataclass
class SensorNoiseSpec:
    """True noise magnitudes injected into the synthetic sensors."""

    sigma_accel: float = 0.0  # m/s^2/sqrt(Hz) white density
    sigma_gyro: float = 0.0  # rad/s/sqrt(Hz)
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_pixel: float = 0.0  # px
    sigma_speed: float = 0.0  # m/s
    outlier_fraction: float = 0.0

    def __post_init__(self):
        self.bias_accel = np.asarray(self.bias_accel, dtype=float).reshape(3)
        self.bias_gyro = np.asarray(self.bias_gyro, dtype=float).reshape(3)
        for name in ("sigma_accel", "sigma_gyro", "sigma_pixel", "sigma_speed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")


@dataclass
class CorridorGeometry:
    wall_offset_m: float = 4.0
    wall_jitter_m: float = 0.6
    z_min_m: float = -1.5
    z_max_m: float = 3.0
    ground_fraction: float = 0.25
    # walls continue past the trajectory end so the final frames, which look
    # forward, still see structure
    lookahead_m: float = 80.0
    # landmark-free stretch along the arc (start m, end m), for ablations
    sparse_window: tuple | None = None
    sparse_count: int = 8


# ---------------------------------------------------------------------------
# analytic paths (planar, z = 0; body x along the tangent, z up)

def _smoothstep5(x: float):
    """Quintic smoothstep on [0, 1] with value, first and second derivative."""
    if x <= 0.0:
        return 0.0, 0.0, 0.0
    if x >= 1.0:
        return 1.0, 0.0, 0.0
    v = x**3 * (10.0 - 15.0 * x + 6.0 * x * x)
    d1 = 30.0 * x * x * (1.0 - x) ** 2
    d2 = 60.0 * x * (1.0 - 3.0 * x + 2.0 * x * x)
    return v, d1, d2


class _StraightPath:
    def __init__(self, spec: TrajectorySpec):
        self.v = spec.speed_mps

    def state(self, t: float):
        pos = np.array([self.v * t, 0.0, 0.0])
        vel = np.array([self.v, 0.0, 0.0])
        return pos, vel, np.zeros(3), 0.0, 0.0


class _CirclePath:
    def __init__(self, spec: TrajectorySpec):
        self.v = spec.speed_mps
        self.r = spec.radius_m
        self.w = self.v / self.r

    def state(self, t: float):
        a = self.w * t
        pos = self.r * np.array([np.sin(a), 1.0 - np.cos(a), 0.0])
        vel = self.v * np.array([np.cos(a), np.sin(a), 0.0])
        acc = self.v * self.w * np.array([-np.sin(a), np.cos(a), 0.0])
        return pos, vel, acc, a, self.w


class _CorridorPath:
    """Stationary hold, C2 speed ramp, then cruise along a lane with S-turns."""

    def __init__(self, spec: TrajectorySpec):
        self.v = spec.speed_mps
        self.t0 = spec.hold_s
        self.tr = max(spec.ramp_s, 1e-6)
        self.turns = spec.turns

    def _arc(self, t: float):
        if t <= self.t0:
            return 0.0, 0.0, 0.0
        if t <= self.t0 + self.tr:
            x = (t - self.t0) / self.tr
            sv, sd1, sd2 = _smoothstep5(x)
            s = self.v * self.tr * (x**4 * (2.5 - 3.0 * x + x * x))
            return s, self.v * sv, self.v * sd1 / self.tr
        s_ramp = 0.5 * self.v * self.tr
        return s_ramp + self.v * (t - self.t0 - self.tr), self.v, 0.0

    def _lateral(self, s: float):
        lat = lat1 = lat2 = 0.0
        for s_start, length, amp in self.turns:
            x = (s - s_start) / length
            v, d1, d2 = _smoothstep5(x)
            lat += amp * v
            lat1 += amp * d1 / length
            lat2 += amp * d2 / length**2
        return lat, lat1, lat2

    def state(self, t: float):
        s, sd, sdd = self._arc(t)
        lat, lat1, lat2 = self._lateral(s)
        pos = np.array([s, lat, 0.0])
        vel = np.array([sd, lat1 * sd, 0.0])
        acc = np.array([sdd, lat2 * sd * sd + lat1 * sdd, 0.0])
        psi = np.arctan2(lat1, 1.0)
        psidot = lat2 / (1.0 + lat1 * lat1) * sd
        return pos, vel, acc, psi, psidot


_PATHS = {
    "straight": _StraightPath,
    "circle": _CirclePath,
    "corridor-with-turns": _CorridorPath,
}


def _rot_z(psi: float) -> Rotation:
    half = 0.5 * psi
    return Rotation((np.cos(half), 0.0, 0.0, np.sin(half)))


@dataclass
class World:
    """Landmark cloud plus the exact trajectory it was generated around."""

    spec: TrajectorySpec
    landmarks: np.ndarray  # (K, 3)
    landmark_intensity: np.ndarray  # (K,)
    times: np.ndarray  # (N,) trajectory sample times at IMU rate
    poses: list  # [Pose] body (IMU) in global
    velocities: np.ndarray  # (N, 3) world frame
    accelerations: np.ndarray  # (N, 3) world frame
    body_rates: np.ndarray  # (N, 3) rad/s, body frame
    arc_lengths: np.ndarray  # (N,) cumulative path length
    path: object  # analytic path, used for exact evaluation between samples

    def eval(self, t: float):
        """Exact (pose, velocity, world acceleration, body rate) at time t."""
        pos, vel, acc, psi, psidot = self.path.state(t)
        return (
            Pose(_rot_z(psi), pos),
            vel,
            acc,
            np.array([0.0, 0.0, psidot]),
        )

    def point_cloud(self) -> PointCloud:
        return PointCloud(self.landmarks, self.landmark_intensity)


def gen_world(
    spec: TrajectorySpec,
    landmark_count: int = 2500,
    corridor: CorridorGeometry | None = None,
) -> World:
    """Sample the analytic trajectory and scatter landmarks along it.

    Landmarks sit on two corridor walls and the ground band between them,
    placed by arc length; a configured sparse window along the arc gets only
    ``sparse_count`` landmarks (the feature-starved stretch for ablations).
    """
    if landmark_count <= 0:
        raise GenerationError("landmark_count must be positive")
    corridor = corridor or CorridorGeometry()
    path = _PATHS[spec.shape](spec)
    rng = np.random.default_rng([spec.seed, 17])

    n = int(round(spec.duration_s * spec.imu_rate_hz))
    times = np.arange(n + 1) / spec.imu_rate_hz
    poses, vels, accs, rates = [], [], [], []
    for t in times:
        pos, vel, acc, psi, psidot = path.state(t)
        poses.append(Pose(_rot_z(psi), pos))
        vels.append(vel)
        accs.append(acc)
        rates.append([0.0, 0.0, psidot])
    vels = np.array(vels)
    accs = np.array(accs)
    rates = np.array(rates)
    positions = np.array([p.translation for p in poses])
    seg = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])

    # Placement table along the path extended past the trajectory end, so the
    # forward-looking camera still sees walls near the finish.
    t_ext = spec.duration_s + corridor.lookahead_m / max(spec.speed_mps, 0.1)
    place_times = np.linspace(0.0, t_ext, max(int(t_ext * 20), 2))
    place_pos = np.empty((len(place_times), 3))
    place_left = np.empty((len(place_times), 3))
    for i, t in enumerate(place_times):
        pos, _, _, psi, _ = path.state(t)
        place_pos[i] = pos
        place_left[i] = [-np.sin(psi), np.cos(psi), 0.0]
    place_arc = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(place_pos, axis=0), axis=1))]
    )
    place_total = float(place_arc[-1])
    if place_total <= 0.0:
        raise GenerationError("path (including lookahead) does not move; cannot place landmarks")

    # Landmark arc positions: uniform over the path outside the sparse window
    # (drawn directly over the allowed measure), plus the few sparse-window
    # landmarks spread evenly inside it.
    window = corridor.sparse_window
    if window is None:
        arcs = rng.uniform(0.0, place_total, size=landmark_count)
    else:
        s0, s1 = max(0.0, window[0]), min(place_total, window[1])
        allowed = place_total - max(0.0, s1 - s0)
        if allowed <= 0.0:
            raise GenerationError("sparse window leaves no path for dense landmarks")
        u = rng.uniform(0.0, allowed, size=landmark_count)
        arcs = np.where(u < s0, u, u + (s1 - s0))
        if corridor.sparse_count > 0:
            sparse = np.linspace(s0, s1, corridor.sparse_count + 2)[1:-1]
            arcs = np.concatenate([arcs, sparse])
    arcs = np.sort(arcs)

    idx = np.clip(np.searchsorted(place_arc, arcs), 0, len(place_times) - 1)
    k = len(arcs)
    side = rng.choice([-1.0, 1.0], size=k)
    on_ground = rng.random(k) < corridor.ground_fraction
    lateral = np.where(
        on_ground,
        rng.uniform(-corridor.wall_offset_m, corridor.wall_offset_m, size=k),
        side * (corridor.wall_offset_m + rng.uniform(0.0, corridor.wall_jitter_m, size=k)),
    )
    height = np.where(
        on_ground,
        corridor.z_min_m,
        rng.uniform(corridor.z_min_m, corridor.z_max_m, size=k),
    )
    landmarks = (
        place_pos[idx]
        + lateral[:, None] * place_left[idx]
        + np.column_stack([np.zeros(k), np.zeros(k), height])
    )
    intensity = rng.integers(30, 256, size=k).astype(float)

    return World(
        spec=spec,
        landmarks=landmarks,
        landmark_intensity=intensity,
        times=times,
        poses=poses,
        velocities=vels,
        accelerations=accs,
        body_rates=rates,
        arc_lengths=arc,
        path=path,
    )


def synthesize_imu(
    world: World, noise: SensorNoiseSpec, gravity: np.ndarray = GRAVITY_W
) -> np.ndarray:
    """Invert the propagation model: a_m = R^T (a - g) + bias + white noise.

    Returns the (n, 7) IMU rows (t, ax, ay, az, wx, wy, wz). Row k is stamped at its window start k/rate and carries the exact
    window increments (an integrating IMU reports delta-angle/delta-velocity
    averages): the gyro value is log(R_k^T R_{k+1})/dt and the accelerometer
    value is R_k^T (dv/dt - g). Zero-order-hold propagation of noiseless
    samples then reproduces rotation and velocity exactly and position at
    second order in dt.
    """
    gravity = np.asarray(gravity, dtype=float).reshape(3)
    rate = world.spec.imu_rate_hz
    dt = 1.0 / rate
    n = int(round(world.spec.duration_s * rate))
    rng = np.random.default_rng([world.spec.seed, 23])
    sigma_a = noise.sigma_accel * np.sqrt(rate)
    sigma_g = noise.sigma_gyro * np.sqrt(rate)
    rows = np.empty((n, 7))
    pose0, vel0, _, _ = world.eval(0.0)
    for k in range(n):
        pose1, vel1, _, _ = world.eval((k + 1) * dt)
        w_m = so3_log(pose0.rotation.inverse() @ pose1.rotation) / dt + noise.bias_gyro
        a_m = (
            pose0.rotation.inverse().apply((vel1 - vel0) / dt - gravity)
            + noise.bias_accel
        )
        if sigma_a > 0.0:
            a_m = a_m + rng.normal(0.0, sigma_a, 3)
        if sigma_g > 0.0:
            w_m = w_m + rng.normal(0.0, sigma_g, 3)
        rows[k, 0], rows[k, 1:4], rows[k, 4:7] = k * dt, a_m, w_m
        pose0, vel0 = pose1, vel1
    return rows


def synthesize_speed(world: World, noise: SensorNoiseSpec) -> np.ndarray:
    """Wheel-speed stand-in at frame rate, body-x velocity plus noise: the
    (n, 2) speed rows (t, vx)."""
    rate = world.spec.frame_rate_hz
    n = int(round(world.spec.duration_s * rate))
    rng = np.random.default_rng([world.spec.seed, 29])
    rows = np.empty((n, 2))
    for k in range(n):
        t = k / rate
        pose, vel, _, _ = world.eval(t)
        vx = float(abs(np.dot(vel, pose.rotation.apply(np.array([1.0, 0.0, 0.0])))))
        if noise.sigma_speed > 0.0:
            vx += float(rng.normal(0.0, noise.sigma_speed))
        rows[k] = t, vx
    return rows


def frame_times(world: World) -> np.ndarray:
    rate = world.spec.frame_rate_hz
    n = int(round(world.spec.duration_s * rate))
    return np.arange(n) / rate


def camera_pose_at(world: World, t: float, extrinsics: Pose) -> Pose:
    pose, _, _, _ = world.eval(t)
    return pose @ extrinsics.inverse()


def build_reference_map(
    world: World,
    intr: CameraIntrinsics,
    node_spacing_m: float,
    extrinsics: Pose | None = None,
) -> TopologicalMap:
    """Ground-truth map: nodes at exact poses every node_spacing_m of arc."""
    if node_spacing_m <= 0:
        raise GenerationError("node spacing must be positive")
    extrinsics = extrinsics or Pose.identity()
    cloud = world.point_cloud()
    topo_map = TopologicalMap(intr)
    targets = np.arange(0.0, world.arc_lengths[-1] + 1e-9, node_spacing_m)
    used = set()
    for s in targets:
        i = int(np.searchsorted(world.arc_lengths, s))
        i = min(i, len(world.poses) - 1)
        if i in used:
            continue
        used.add(i)
        cam_pose = world.poses[i] @ extrinsics.inverse()
        inten, depth = rasterize(cloud, cam_pose, intr)
        node = TopoNode(
            node_id=len(topo_map),
            depth=depth,
            image=inten,
            pose=cam_pose,
            timestamp=float(world.times[i]),
            intrinsics=intr,
        )
        topo_map.insert_node(node)
    topo_map.build_index()
    return topo_map


def count_visible(
    world: World, intr: CameraIntrinsics, extrinsics: Pose, t: float,
    min_depth: float = 0.1, max_range: float = 200.0,
) -> int:
    """Landmarks inside the camera frustum and render range (occlusion ignored)."""
    cam = camera_pose_at(world, t, extrinsics)
    pts_cam = cam.inverse().apply(world.landmarks)
    uv, front = project_points(intr, pts_cam, min_depth=min_depth)
    ok = (
        front
        & (pts_cam[:, 2] < max_range)
        & (uv[:, 0] >= 0) & (uv[:, 0] <= intr.width - 1)
        & (uv[:, 1] >= 0) & (uv[:, 1] <= intr.height - 1)
    )
    return int(np.count_nonzero(ok))


def validate_visibility(
    world: World,
    intr: CameraIntrinsics,
    extrinsics: Pose,
    times: np.ndarray,
    min_count: int,
) -> None:
    """Fail loudly if any frame sees fewer than ``min_count`` landmarks."""
    worst_t, worst_n = None, None
    for t in times:
        n = count_visible(world, intr, extrinsics, t)
        if worst_n is None or n < worst_n:
            worst_t, worst_n = t, n
    if worst_n is not None and worst_n < min_count:
        raise GenerationError(
            f"frame at t={worst_t:.2f} s sees only {worst_n} landmarks "
            f"(minimum {min_count}); adjust the world configuration"
        )
